package dag

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/layout"
	"repro/internal/mat"
)

// goldenShapes pins one FNV-1a hash per graph configuration over every
// task's structure and cost fields (see graphHash). The simulator charges
// exactly these fields and the runtime schedules by them, so a builder
// change that moves no hash moves no task, edge, priority or simulated
// number. CALU and Cholesky use Nstatic = nb/2, CALU k = 3.
var goldenShapes = []struct {
	algo    string // CALU, Cholesky, GEPP or IncPiv
	kind    layout.Kind
	shape   string // a goldenDims key
	workers int
	hash    uint64
}{
	{"CALU", layout.CM, "square", 1, 0x34be90c334184f5a},
	{"CALU", layout.CM, "square", 2, 0x4314ab16171f72cc},
	{"CALU", layout.CM, "square", 4, 0xe68e32c424995f15},
	{"CALU", layout.CM, "square", 6, 0x64199ee466cd815d},
	{"CALU", layout.CM, "tall", 1, 0xf3524e9dbca84a14},
	{"CALU", layout.CM, "tall", 2, 0x3ed3470198c16ac2},
	{"CALU", layout.CM, "tall", 4, 0x097866c66902cd15},
	{"CALU", layout.CM, "tall", 6, 0xd033dfed12bfec75},
	{"CALU", layout.CM, "wide", 1, 0x61c84e3cea2a9fe9},
	{"CALU", layout.CM, "wide", 2, 0x4083c3943a7f7372},
	{"CALU", layout.CM, "wide", 4, 0x3518cf11c790380b},
	{"CALU", layout.CM, "wide", 6, 0x65a07cf413249fcf},
	{"CALU", layout.CM, "ragged", 1, 0x7a858d81fe20d4d1},
	{"CALU", layout.CM, "ragged", 2, 0x30b18a65b185c87e},
	{"CALU", layout.CM, "ragged", 4, 0xbf7c13f58a7d39d8},
	{"CALU", layout.CM, "ragged", 6, 0xc046178115da7672},
	{"CALU", layout.BCL, "square", 1, 0x34be90c334184f5a},
	{"CALU", layout.BCL, "square", 2, 0x4314ab16171f72cc},
	{"CALU", layout.BCL, "square", 4, 0x044a91badad99c32},
	{"CALU", layout.BCL, "square", 6, 0xbb3d1a1f529baf6a},
	{"CALU", layout.BCL, "tall", 1, 0xf3524e9dbca84a14},
	{"CALU", layout.BCL, "tall", 2, 0x3ed3470198c16ac2},
	{"CALU", layout.BCL, "tall", 4, 0x8420bd76868e0258},
	{"CALU", layout.BCL, "tall", 6, 0x64af4fa61eb274c2},
	{"CALU", layout.BCL, "wide", 1, 0x61c84e3cea2a9fe9},
	{"CALU", layout.BCL, "wide", 2, 0x4083c3943a7f7372},
	{"CALU", layout.BCL, "wide", 4, 0x78dc1e12b4d07d44},
	{"CALU", layout.BCL, "wide", 6, 0x1873e306da36522a},
	{"CALU", layout.BCL, "ragged", 1, 0x7a858d81fe20d4d1},
	{"CALU", layout.BCL, "ragged", 2, 0x30b18a65b185c87e},
	{"CALU", layout.BCL, "ragged", 4, 0x17a67e6b11f61563},
	{"CALU", layout.BCL, "ragged", 6, 0x67a8a57ef33d7e01},
	{"CALU", layout.TwoLevel, "square", 1, 0xb38d43d1b719473a},
	{"CALU", layout.TwoLevel, "square", 2, 0x8f4dea6facc3acec},
	{"CALU", layout.TwoLevel, "square", 4, 0x028951c855da58e9},
	{"CALU", layout.TwoLevel, "square", 6, 0xfab2e706aca02111},
	{"CALU", layout.TwoLevel, "tall", 1, 0x72d2611b226b522c},
	{"CALU", layout.TwoLevel, "tall", 2, 0xbf30fba6af767cd6},
	{"CALU", layout.TwoLevel, "tall", 4, 0x677254152cd1d408},
	{"CALU", layout.TwoLevel, "tall", 6, 0xc2bec55b0583cc02},
	{"CALU", layout.TwoLevel, "wide", 1, 0x3c4a46fc4096d350},
	{"CALU", layout.TwoLevel, "wide", 2, 0x923e82e76a947c23},
	{"CALU", layout.TwoLevel, "wide", 4, 0x0356e169d26b6c35},
	{"CALU", layout.TwoLevel, "wide", 6, 0x344cc93def27fbdf},
	{"CALU", layout.TwoLevel, "ragged", 1, 0xf054edd10a335933},
	{"CALU", layout.TwoLevel, "ragged", 2, 0xd597042bcbf82284},
	{"CALU", layout.TwoLevel, "ragged", 4, 0x0928cd63f08ac808},
	{"CALU", layout.TwoLevel, "ragged", 6, 0x8273a9e1cc695340},
	{"CALU", layout.CM, "skinny", 1, 0xed273486f53c17ad},
	{"CALU", layout.BCL, "skinny", 1, 0xed273486f53c17ad},
	{"CALU", layout.BCL, "skinny", 2, 0x7dda04a087c4cfd7},
	{"CALU", layout.BCL, "skinny", 4, 0xf19ea2e7ad555054},
	{"Cholesky", layout.CM, "square", 1, 0x07e5c638dffa85ba},
	{"Cholesky", layout.CM, "square", 4, 0xe1623b383019b906},
	{"Cholesky", layout.BCL, "square", 2, 0xdc4acda225bb19d1},
	{"Cholesky", layout.BCL, "square", 6, 0x0252ebc9f8427fc8},
	{"Cholesky", layout.TwoLevel, "square", 4, 0xe1623b383019b906},
	{"Cholesky", layout.TwoLevel, "square", 2, 0xdc4acda225bb19d1},
	{"GEPP", layout.CM, "square", 1, 0x8275f8909b8dc87f},
	{"GEPP", layout.CM, "square", 4, 0x75c3bdc120312559},
	{"GEPP", layout.CM, "ragged", 2, 0x7ca7c265c7023fa2},
	{"GEPP", layout.CM, "tall", 6, 0x70aa7e128c9a63aa},
	{"IncPiv", layout.TwoLevel, "square", 1, 0xc93c2a44d6db4e32},
	{"IncPiv", layout.TwoLevel, "square", 4, 0x54aec6b07406de0c},
	{"IncPiv", layout.TwoLevel, "ragged", 2, 0x9096ef5ab99f7479},
	{"IncPiv", layout.TwoLevel, "wide", 6, 0x6b7e558693bdf9bd},
}

// goldenDims are the matrix shapes of goldenShapes, all with b = 8.
var goldenDims = map[string][2]int{
	"square": {96, 96},
	"tall":   {160, 48},
	"wide":   {48, 160},
	"ragged": {83, 61},
	// Taller than leafRows: step 0's panel gets two tournament leaves on
	// a one-row grid, step 1's 4096 rows one.
	"skinny": {4104, 16},
}

// graphHash is FNV-1a over the graph's worker count and panel-handle
// count, then, task by task, Kind, K, I, J, Group, Owner, Static, the
// bits of Flops and Bytes, Prio, NumDeps and Outs (little-endian int64s,
// slices length-prefixed).
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(int64(g.Workers))
	put(int64(len(g.Panels)))
	for _, t := range g.Tasks {
		put(int64(t.Kind))
		put(int64(t.K))
		put(int64(t.I))
		put(int64(t.J))
		put(int64(len(t.Group)))
		for _, i := range t.Group {
			put(int64(i))
		}
		put(int64(t.Owner))
		if t.Static {
			put(1)
		} else {
			put(0)
		}
		put(int64(math.Float64bits(t.Flops)))
		put(int64(math.Float64bits(t.Bytes)))
		put(t.Prio)
		put(int64(t.NumDeps))
		put(int64(len(t.Outs)))
		for _, o := range t.Outs {
			put(int64(o))
		}
	}
	return h.Sum64()
}

// TestGraphShapeGolden builds every goldenShapes configuration over a
// real layout holding random data (the shape does not depend on it) and
// compares its hash with the one recorded at the commit before the
// builders read a layout.Shape instead of a layout.Layout; the skinny
// rows were recorded when the default leaf count started to follow the
// panel height.
func TestGraphShapeGolden(t *testing.T) {
	for _, c := range goldenShapes {
		name := fmt.Sprintf("%s/%s/%s/W%d", c.algo, c.kind, c.shape, c.workers)
		d := goldenDims[c.shape]
		src := mat.Random(d[0], d[1], rand.New(rand.NewSource(1)))
		l := layout.New(c.kind, src, 8, layout.NewGrid(c.workers))
		_, nb := l.Blocks()
		var g *Graph
		switch c.algo {
		case "CALU":
			g = BuildCALU(l, CALUOptions{NstaticCols: nb / 2, Group: 3}).Graph
		case "Cholesky":
			g = BuildCholesky(l, CALUOptions{NstaticCols: nb / 2}).Graph
		case "GEPP":
			g = BuildGEPP(l).Graph
		case "IncPiv":
			g = BuildIncPiv(l).Graph
		default:
			t.Fatalf("%s: unknown algorithm", name)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := graphHash(g); got != c.hash {
			t.Errorf("%s: graph hash %#016x, want %#016x", name, got, c.hash)
		}
	}
}
