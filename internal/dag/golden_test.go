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
// number. CALU and Cholesky use Nstatic = nb/2, CALU k = 3. A CALU row
// hashes NewCALU's graph, and BuildCALU over the row's layout must hash
// the same: the simulator and the runtime share the graph.
var goldenShapes = []struct {
	algo    string // CALU, Cholesky, GEPP, IncPiv or a solveGolden key
	kind    layout.Kind
	shape   string // a goldenDims key
	workers int
	hash    uint64
}{
	{"CALU", layout.CM, "square", 1, 0x23c96895d56bac0f},
	{"CALU", layout.CM, "square", 2, 0xe734e3f71ef74639},
	{"CALU", layout.CM, "square", 4, 0xc998c8a3a53ea3c0},
	{"CALU", layout.CM, "square", 6, 0x5072d18867aa4a48},
	{"CALU", layout.CM, "tall", 1, 0x78c1864cbd59c26c},
	{"CALU", layout.CM, "tall", 2, 0x50e8535c13c04dda},
	{"CALU", layout.CM, "tall", 4, 0x7bea40e6f041550d},
	{"CALU", layout.CM, "tall", 6, 0x35a8077f6a64f42d},
	{"CALU", layout.CM, "wide", 1, 0xdf2c5e865b7b1015},
	{"CALU", layout.CM, "wide", 2, 0xb5c4764203e1004e},
	{"CALU", layout.CM, "wide", 4, 0x999de2d1eb2cc49f},
	{"CALU", layout.CM, "wide", 6, 0x6ac6b42b3825069b},
	{"CALU", layout.CM, "ragged", 1, 0x7a2c6def4600c498},
	{"CALU", layout.CM, "ragged", 2, 0xe6f701586bb86c1f},
	{"CALU", layout.CM, "ragged", 4, 0xcdc14a3bc3910169},
	{"CALU", layout.CM, "ragged", 6, 0xbbbab2508ff89c7b},
	{"CALU", layout.BCL, "square", 1, 0xae6862dee401288b},
	{"CALU", layout.BCL, "square", 2, 0x17f93e0f3c72b20d},
	{"CALU", layout.BCL, "square", 4, 0x899050d60388cb8a},
	{"CALU", layout.BCL, "square", 6, 0x71558932e08d08da},
	{"CALU", layout.BCL, "square", 8, 0xd3c508396be083d0},
	{"CALU", layout.BCL, "tall", 1, 0xb883f8057da98d40},
	{"CALU", layout.BCL, "tall", 2, 0xee0e2c21bd3eb516},
	{"CALU", layout.BCL, "tall", 4, 0x4fb53b7e4f9de2a3},
	{"CALU", layout.BCL, "tall", 6, 0x05974077736feb1d},
	{"CALU", layout.BCL, "wide", 1, 0x3d2fecac0c0b8403},
	{"CALU", layout.BCL, "wide", 2, 0x71fda152ea6ce862},
	{"CALU", layout.BCL, "wide", 4, 0xb14dfbc80063f028},
	{"CALU", layout.BCL, "wide", 6, 0x4220d3e41c92de6f},
	{"CALU", layout.BCL, "wide", 16, 0x8723e27ce60c8990},
	{"CALU", layout.BCL, "ragged", 1, 0x2cda40420e2cd0a6},
	{"CALU", layout.BCL, "ragged", 2, 0x92a2e4160ba1e0ab},
	{"CALU", layout.BCL, "ragged", 4, 0x8f1c84fb902618eb},
	{"CALU", layout.BCL, "ragged", 6, 0x1c75dbd11536a0c5},
	{"CALU", layout.TwoLevel, "square", 1, 0xee86de9ec40e6aec},
	{"CALU", layout.TwoLevel, "square", 2, 0x190f8f4c60ac855a},
	{"CALU", layout.TwoLevel, "square", 4, 0xd5b054a3c53253eb},
	{"CALU", layout.TwoLevel, "square", 6, 0x59ca6d3397f770db},
	{"CALU", layout.TwoLevel, "tall", 1, 0xb812da79859f9439},
	{"CALU", layout.TwoLevel, "tall", 2, 0x86c26c1515e2cd1b},
	{"CALU", layout.TwoLevel, "tall", 4, 0xfc27231f18d2c675},
	{"CALU", layout.TwoLevel, "tall", 6, 0xd154ba7d49f5619f},
	{"CALU", layout.TwoLevel, "wide", 1, 0xa0f5b55d9b54fec5},
	{"CALU", layout.TwoLevel, "wide", 2, 0x06fac7ecd038c646},
	{"CALU", layout.TwoLevel, "wide", 4, 0xc1ec458fb5844900},
	{"CALU", layout.TwoLevel, "wide", 6, 0xf86f0867d0f2eb8a},
	{"CALU", layout.TwoLevel, "ragged", 1, 0x1512136c68963f42},
	{"CALU", layout.TwoLevel, "ragged", 2, 0x854a34eb791bf0c5},
	{"CALU", layout.TwoLevel, "ragged", 4, 0x9e1c4c4b47e136f1},
	{"CALU", layout.TwoLevel, "ragged", 6, 0xb345d35434cec801},
	{"CALU", layout.CM, "skinny", 1, 0xca471badc14c31c8},
	{"CALU", layout.BCL, "skinny", 1, 0xca471badc14c31c8},
	{"CALU", layout.BCL, "skinny", 2, 0x3d6b8967ee7eb122},
	{"CALU", layout.BCL, "skinny", 4, 0xe0ece42f622addb5},
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
	{"Solve", layout.CM, "square", 1, 0xfd9a87d8ffced6ea},
	{"Solve", layout.CM, "square", 2, 0x8f977b53677527cd},
	{"Solve", layout.CM, "square", 4, 0x249346665af6bed3},
	{"Solve", layout.CM, "ragged", 2, 0x01f5ebb038d3c6f8},
	{"SolveNonUnit", layout.CM, "square", 2, 0x8f977b53677527cd},
	{"SolveNonUnit", layout.CM, "ragged", 4, 0x3710dd96d215062a},
	{"SolveDynamic", layout.CM, "square", 1, 0xa5528fb859444cce},
	{"SolveDynamic", layout.CM, "square", 4, 0x0c1d18e928712d67},
	{"SolveDynamic", layout.CM, "ragged", 2, 0x3a23217c7fa9878c},
	{"SolveStatic", layout.CM, "square", 2, 0xa4b4520d7fec16f9},
	{"SolveStatic", layout.CM, "square", 4, 0x7411f7ca165a6c97},
	{"SolveStatic", layout.CM, "ragged", 1, 0x23e93781330f0d6f},
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
// every task field hashed as before. The BCL CALU rows were recorded
// when the one CALU graph started to merge the static far update per
// owner (every W <= 2 row equals the merged graph the runtime ran
// before), the W8 row when grids of mergeFarBelow workers went back to
// per-block S tasks; the Solve rows before the forward and backward
// sweeps became one loop.
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
			opt := CALUOptions{NstaticCols: nb / 2, Group: 3}
			g = NewCALU(layout.ShapeOf(l), opt).Graph
			if got := graphHash(BuildCALU(l, opt).Graph); got != graphHash(g) {
				t.Errorf("%s: BuildCALU hash %#016x differs from NewCALU's", name, got)
			}
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
