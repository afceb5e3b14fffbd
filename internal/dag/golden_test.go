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
// number. CALU and Cholesky use Nstatic = nb/2, CALU k = 3. "CALU" is
// NewCALU's paper graph, the one the simulator charges; "BuildCALU" is
// the graph the runtime executes, with the static section's far-column
// updates merged per (step, owner) under BCL. Its CM and 2l-BL rows
// carry the paper graph's hashes: those layouts merge nothing.
var goldenShapes = []struct {
	algo    string // CALU, BuildCALU, Cholesky, GEPP, IncPiv or a solveGolden key
	kind    layout.Kind
	shape   string // a goldenDims key
	workers int
	hash    uint64
}{
	{"CALU", layout.CM, "square", 1, 0x8791cd416c0ac51b},
	{"CALU", layout.CM, "square", 2, 0x6faff4020c0e8345},
	{"CALU", layout.CM, "square", 4, 0x54f6073da2b85804},
	{"CALU", layout.CM, "square", 6, 0xe220a6c23b19265c},
	{"CALU", layout.CM, "tall", 1, 0xb91e70b1615c780b},
	{"CALU", layout.CM, "tall", 2, 0x2406e033f6d595cd},
	{"CALU", layout.CM, "tall", 4, 0xc3bc6b52741c4b8e},
	{"CALU", layout.CM, "tall", 6, 0xa6028bf81bebc6e6},
	{"CALU", layout.CM, "wide", 1, 0x110394c8f039649c},
	{"CALU", layout.CM, "wide", 2, 0xe30426370923ce3f},
	{"CALU", layout.CM, "wide", 4, 0xe327cdee4692d2fe},
	{"CALU", layout.CM, "wide", 6, 0xb81743d53049770a},
	{"CALU", layout.CM, "ragged", 1, 0x9394cdb7ab8a788c},
	{"CALU", layout.CM, "ragged", 2, 0x383f180faf575c63},
	{"CALU", layout.CM, "ragged", 4, 0xff23719b0b3a869d},
	{"CALU", layout.CM, "ragged", 6, 0xa51e8478a4d95b4f},
	{"CALU", layout.BCL, "square", 1, 0x8791cd416c0ac51b},
	{"CALU", layout.BCL, "square", 2, 0x6faff4020c0e8345},
	{"CALU", layout.BCL, "square", 4, 0x5d80e45a0eed8ff9},
	{"CALU", layout.BCL, "square", 6, 0xbfb3339e93ee08c9},
	{"CALU", layout.BCL, "tall", 1, 0xb91e70b1615c780b},
	{"CALU", layout.BCL, "tall", 2, 0x2406e033f6d595cd},
	{"CALU", layout.BCL, "tall", 4, 0x855411b080d0fdb3},
	{"CALU", layout.BCL, "tall", 6, 0x858fb13e40706a81},
	{"CALU", layout.BCL, "wide", 1, 0x110394c8f039649c},
	{"CALU", layout.BCL, "wide", 2, 0xe30426370923ce3f},
	{"CALU", layout.BCL, "wide", 4, 0x530e4cf9441fb415},
	{"CALU", layout.BCL, "wide", 6, 0x04e14fd0c33ffc5b},
	{"CALU", layout.BCL, "ragged", 1, 0x9394cdb7ab8a788c},
	{"CALU", layout.BCL, "ragged", 2, 0x383f180faf575c63},
	{"CALU", layout.BCL, "ragged", 4, 0xdc19f66bd32872d4},
	{"CALU", layout.BCL, "ragged", 6, 0xf986aef2b9be17de},
	{"CALU", layout.TwoLevel, "square", 1, 0xbd3b6a38808f9225},
	{"CALU", layout.TwoLevel, "square", 2, 0xd95d928bc8539823},
	{"CALU", layout.TwoLevel, "square", 4, 0x7dec535938710dba},
	{"CALU", layout.TwoLevel, "square", 6, 0x8e4e61dca4a0564a},
	{"CALU", layout.TwoLevel, "tall", 1, 0xa263f8283363738a},
	{"CALU", layout.TwoLevel, "tall", 2, 0x8f83b5eece6e5d18},
	{"CALU", layout.TwoLevel, "tall", 4, 0x564aba5960edac92},
	{"CALU", layout.TwoLevel, "tall", 6, 0x6d17dcd91cafe638},
	{"CALU", layout.TwoLevel, "wide", 1, 0x85b4d46b8735995b},
	{"CALU", layout.TwoLevel, "wide", 2, 0x7834d2f3fd354c40},
	{"CALU", layout.TwoLevel, "wide", 4, 0x1ce616aebd300666},
	{"CALU", layout.TwoLevel, "wide", 6, 0x65ba1c01863d01bc},
	{"CALU", layout.TwoLevel, "ragged", 1, 0xb5d359d6621cd5ae},
	{"CALU", layout.TwoLevel, "ragged", 2, 0x5ea0bbad8dd84d81},
	{"CALU", layout.TwoLevel, "ragged", 4, 0x6d7d5ef13ccccd65},
	{"CALU", layout.TwoLevel, "ragged", 6, 0xaca80fc43c71dbbd},
	{"CALU", layout.CM, "skinny", 1, 0xed273486f53c17ad},
	{"CALU", layout.BCL, "skinny", 1, 0xed273486f53c17ad},
	{"CALU", layout.BCL, "skinny", 2, 0x7dda04a087c4cfd7},
	{"CALU", layout.BCL, "skinny", 4, 0xf19ea2e7ad555054},
	{"BuildCALU", layout.CM, "square", 2, 0x6faff4020c0e8345},
	{"BuildCALU", layout.CM, "square", 4, 0x54f6073da2b85804},
	{"BuildCALU", layout.CM, "ragged", 2, 0x383f180faf575c63},
	{"BuildCALU", layout.CM, "ragged", 4, 0xff23719b0b3a869d},
	{"BuildCALU", layout.BCL, "square", 2, 0xcfa28673d01e346f},
	{"BuildCALU", layout.BCL, "square", 4, 0x548162d5e5425e39},
	{"BuildCALU", layout.BCL, "ragged", 2, 0xf26a266d8b212d5e},
	{"BuildCALU", layout.BCL, "ragged", 4, 0x5a8aacabcec37c8a},
	{"BuildCALU", layout.TwoLevel, "square", 2, 0xd95d928bc8539823},
	{"BuildCALU", layout.TwoLevel, "square", 4, 0x7dec535938710dba},
	{"BuildCALU", layout.TwoLevel, "ragged", 2, 0x5ea0bbad8dd84d81},
	{"BuildCALU", layout.TwoLevel, "ragged", 4, 0x6d7d5ef13ccccd65},
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
	{"Solve", layout.CM, "square", 1, 0x52b4a6cdccffe326},
	{"Solve", layout.CM, "square", 2, 0xb785f3d3ace41649},
	{"Solve", layout.CM, "square", 4, 0x6a5d250f544e4e47},
	{"Solve", layout.CM, "ragged", 2, 0x1889ad73607774da},
	{"SolveNonUnit", layout.CM, "square", 2, 0xb785f3d3ace41649},
	{"SolveNonUnit", layout.CM, "ragged", 4, 0xec9ef6d3f8616ea0},
	{"SolveDynamic", layout.CM, "square", 1, 0x1a5e611333f447aa},
	{"SolveDynamic", layout.CM, "square", 4, 0x4c1f078b3b50dd5b},
	{"SolveDynamic", layout.CM, "ragged", 2, 0x647902b1e833fdc6},
	{"SolveStatic", layout.CM, "square", 2, 0x47e153099683dee5},
	{"SolveStatic", layout.CM, "square", 4, 0x94fcae32a30433bb},
	{"SolveStatic", layout.CM, "ragged", 1, 0x0dffdd3a0fa33945},
}

// solveGolden maps a Solve row's algo to its BuildSolve options for nb
// block rows: LU's unit lower triangle or Cholesky's non-unit one, with
// a per-sweep static prefix of nb/2, none or all of the block rows. A
// Solve row's X is rows x cols of its goldenDims shape, its triangles
// rows x rows, and its kind is unused.
var solveGolden = map[string]func(nb int) SolveOptions{
	"Solve":        func(nb int) SolveOptions { return SolveOptions{NstaticCols: nb / 2, UnitLower: true} },
	"SolveNonUnit": func(nb int) SolveOptions { return SolveOptions{NstaticCols: nb / 2} },
	"SolveDynamic": func(nb int) SolveOptions { return SolveOptions{UnitLower: true} },
	"SolveStatic":  func(nb int) SolveOptions { return SolveOptions{NstaticCols: nb, UnitLower: true} },
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
// panel height. The CALU rows with shared L panels were re-recorded
// when the panel cache lost its A side: the handle count fell, while
// every task field hashed as before. The BuildCALU rows were recorded
// when the runtime's graph started to merge the static update, the Solve
// rows before the forward and backward sweeps became one loop.
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
			g = NewCALU(layout.ShapeOf(l), CALUOptions{NstaticCols: nb / 2, Group: 3}).Graph
		case "BuildCALU":
			g = BuildCALU(l, CALUOptions{NstaticCols: nb / 2, Group: 3}).Graph
		case "Cholesky":
			g = BuildCholesky(l, CALUOptions{NstaticCols: nb / 2}).Graph
		case "GEPP":
			g = BuildGEPP(l).Graph
		case "IncPiv":
			g = BuildIncPiv(l).Graph
		default:
			solve, ok := solveGolden[c.algo]
			if !ok {
				t.Fatalf("%s: unknown algorithm", name)
			}
			n := d[0]
			opt := solve((n + 7) / 8)
			opt.Block, opt.Workers = 8, c.workers
			tri := mat.Random(n, n, rand.New(rand.NewSource(2)))
			g = BuildSolve(tri, tri, mat.Random(n, d[1], rand.New(rand.NewSource(3))), opt).Graph
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := graphHash(g); got != c.hash {
			t.Errorf("%s: graph hash %#016x, want %#016x", name, got, c.hash)
		}
	}
}
