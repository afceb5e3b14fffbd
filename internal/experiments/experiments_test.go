package experiments

import (
	"hash/fnv"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Small scale keeps the full suite fast; shape assertions use the same
// generators the CLI runs at full scale.
const testScale = 0.3

// tables caches runOK's results: every experiment at testScale runs
// once per test binary, for TestExperimentsGolden and the shape tests
// alike.
var tables = map[string]*Table{}

func runOK(t *testing.T, id string) *Table {
	t.Helper()
	if tbl, ok := tables[id]; ok {
		return tbl
	}
	tbl, err := Run(id, testScale, 42)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	if tbl.String() == "" {
		t.Fatalf("%s: empty rendering", id)
	}
	tables[id] = tbl
	return tbl
}

// TestExperimentsGolden pins every registered experiment's rendering,
// as the FNV-1a hash of Run(id, testScale, 42).String(): a change that
// must not move a reproduced number leaves every hash alone, and one
// that means to move an experiment re-records that id's hash only.
func TestExperimentsGolden(t *testing.T) {
	want := map[string]uint64{
		"fig1":     0x7c725c6c5babeb12,
		"fig4":     0xe48000828f5d2d07,
		"fig6":     0xfab168be71c870a5,
		"fig7":     0xa28b797ee90ff1e,
		"fig8":     0xa3be34a3f87e4946,
		"fig9":     0x60169f9777085f67,
		"fig10":    0xa62395c5f543bdab,
		"fig11":    0xd858e1ef4add0c1a,
		"fig12":    0x78a6768f3705d30a,
		"fig13":    0x79bc774d12fff035,
		"fig14":    0xc6b36c9016fc0fd1,
		"fig15":    0xc81c6d57f6b4f75c,
		"fig16":    0x998b7ffa820b75ed,
		"fig17":    0x4db54e0124228866,
		"table1":   0xd28f072af3a6f813,
		"thm1":     0xfbdbeab8013cb70c,
		"exascale": 0x84984aa2d480c662,
		"help":     0x771cc397f756b682,
	}
	for _, id := range IDs() {
		h := fnv.New64a()
		h.Write([]byte(runOK(t, id).String()))
		if got := h.Sum64(); got != want[id] {
			t.Errorf("%s: output hash %#x, want %#x", id, got, want[id])
		}
	}
}

// TestIDsCoverEveryPaperArtifact pins IDs to paper order, each id
// registered once with a title.
func TestIDsCoverEveryPaperArtifact(t *testing.T) {
	want := []string{"fig1", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table1", "thm1", "exascale", "help"}
	if got := IDs(); !slices.Equal(got, want) {
		t.Fatalf("IDs() = %v, want %v", got, want)
	}
	titles := Titles()
	if len(titles) != len(want) {
		t.Fatalf("%d experiments registered, %d listed", len(titles), len(want))
	}
	for _, id := range want {
		if titles[id] == "" {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestUnknownID(t *testing.T) {
	if _, err := Run("nope", 1, 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig6ShapeIntelStaticWorst(t *testing.T) {
	tbl := runOK(t, "fig6")
	// At the largest size the static column must trail the hybrid
	// columns (the paper's core Intel finding); the smaller scaled sizes
	// are panel-bound and too close to call.
	for _, row := range tbl.Rows[len(tbl.Rows)-1:] {
		static := atofOr(t, row[1])
		h10 := atofOr(t, row[2])
		if static >= h10 {
			t.Errorf("n=%s: static %g >= hybrid10 %g", row[0], static, h10)
		}
	}
}

func TestFig7ShapeAMDHybridWins(t *testing.T) {
	// Larger scale: the paper's NUMA-locality regime needs enough
	// trailing work per step, which tiny matrices on 48 cores lack.
	tbl, err := Run("fig7", 0.6, 42)
	if err != nil {
		t.Fatal(err)
	}
	// On the NUMA machine hybrid(10%) must beat fully dynamic for the
	// larger sizes (locality wins).
	last := tbl.Rows[len(tbl.Rows)-1]
	h10 := atofOr(t, last[2])
	dyn := atofOr(t, last[6])
	if h10 <= dyn {
		t.Errorf("largest n: hybrid10 %g <= dynamic %g", h10, dyn)
	}
}

func TestFig10ShapeDynamicCollapses(t *testing.T) {
	tbl := runOK(t, "fig10")
	last := tbl.Rows[len(tbl.Rows)-1]
	h10 := atofOr(t, last[2])
	dyn := atofOr(t, last[6])
	if h10 < 1.2*dyn {
		t.Errorf("2l-BL dynamic should collapse on NUMA: h10 %g vs dynamic %g", h10, dyn)
	}
}

func TestFig14ShapeEarlyIdle(t *testing.T) {
	tbl := runOK(t, "fig14")
	found := false
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "permanently idle") {
			found = true
			if !strings.Contains(row[1], "%") {
				t.Errorf("bad idle point cell %q", row[1])
			}
		}
	}
	if !found {
		t.Fatal("missing permanent-idle metric")
	}
	if !strings.Contains(tbl.Notes, "w00") {
		t.Fatal("missing gantt rendering")
	}
}

func TestFig15LessIdleThanFig1(t *testing.T) {
	f1 := runOK(t, "fig1")
	f15 := runOK(t, "fig15")
	idle := func(tbl *Table) float64 {
		for _, row := range tbl.Rows {
			if row[0] == "idle fraction" {
				return atofOr(t, strings.TrimSuffix(row[1], "%"))
			}
		}
		t.Fatal("no idle fraction row")
		return 0
	}
	if idle(f15) >= idle(f1) {
		t.Errorf("hybrid(10%%) idle %g%% not below static idle %g%%", idle(f15), idle(f1))
	}
}

func TestFig16CALUBeatsLibraries(t *testing.T) {
	tbl := runOK(t, "fig16")
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[5], "+") {
			t.Errorf("n=%s: CALU does not beat MKL-like (%s)", row[0], row[5])
		}
	}
	// PLASMA-like must be beaten at the largest size (paper: 20-30%).
	last := tbl.Rows[len(tbl.Rows)-1]
	if !strings.HasPrefix(last[6], "+") {
		t.Errorf("largest n: CALU does not beat PLASMA-like (%s)", last[6])
	}
}

func TestFig17AMDBigMKLGap(t *testing.T) {
	tbl := runOK(t, "fig17")
	last := tbl.Rows[len(tbl.Rows)-1]
	gap := atofOr(t, strings.TrimSuffix(strings.TrimPrefix(last[5], "+"), "%"))
	if gap < 40 {
		t.Errorf("AMD MKL gap %g%% should be large (paper: up to 110%%)", gap)
	}
}

func TestTable1AllCellsPass(t *testing.T) {
	tbl := runOK(t, "table1")
	if len(tbl.Rows) != 7 {
		t.Fatalf("expected 7 design-space cells, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("cell %s failed residual check", row[0])
		}
	}
}

func TestTheorem1BoundHolds(t *testing.T) {
	// Scale 0.8 (n=4000): at tiny sizes the dratio grid is too coarse
	// for the single-seed optimum to be meaningful.
	tbl, err := Run("thm1", 0.8, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "yes" {
			t.Errorf("bound violated for %s", row[0])
		}
	}
}

func TestExascaleMonotone(t *testing.T) {
	tbl := runOK(t, "exascale")
	prev := -1.0
	for _, row := range tbl.Rows {
		v := atofOr(t, strings.TrimSuffix(row[3], "%"))
		if v < prev-1e-9 {
			t.Errorf("min dynamic share not monotone: %v", tbl.Rows)
		}
		prev = v
	}
}

func TestHelpAblationFillsIdleTime(t *testing.T) {
	tbl := runOK(t, "help")
	if len(tbl.Rows) != 8 {
		t.Fatalf("help ablation has %d rows, want 2 machines x 2 sizes x noise on/off", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if strings.HasPrefix(row[6], "0 of") {
			t.Errorf("no task helped: %v", row)
		}
		if atofOr(t, row[4]) < atofOr(t, row[3]) {
			t.Errorf("help made the owners-first simulation slower: %v", row)
		}
	}
}

func TestProfilesRenderGantt(t *testing.T) {
	for _, id := range []string{"fig1", "fig4"} {
		tbl := runOK(t, id)
		if !strings.Contains(tbl.Notes, "|") {
			t.Errorf("%s: no gantt in notes", id)
		}
	}
}

func TestSweepsHaveAllColumns(t *testing.T) {
	for _, id := range []string{"fig6", "fig7", "fig9", "fig10"} {
		tbl := runOK(t, id)
		if len(tbl.Columns) != 7 {
			t.Errorf("%s: %d columns want 7", id, len(tbl.Columns))
		}
		for _, row := range tbl.Rows {
			if len(row) != len(tbl.Columns) {
				t.Errorf("%s: ragged row %v", id, row)
			}
		}
	}
}

func TestImprovementTablesHaveBothCoreCounts(t *testing.T) {
	for _, id := range []string{"fig8", "fig11"} {
		tbl := runOK(t, id)
		cores := map[string]bool{}
		for _, row := range tbl.Rows {
			cores[row[0]] = true
		}
		if !cores["24"] || !cores["48"] {
			t.Errorf("%s: missing core counts %v", id, cores)
		}
	}
}

func atofOr(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		t.Fatalf("cannot parse %q: %v", s, err)
	}
	return v
}
