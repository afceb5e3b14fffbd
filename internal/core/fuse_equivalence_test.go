package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dag"
	"repro/internal/mat"
	"repro/internal/rt"
)

// TestFusedCompositeBitIdentical is the contract of dag.Fuse: fusing a
// mixed batch of small factor and solve jobs into one composite forest
// must produce BIT-identical results to running each job alone,
// because fusion adds no edges between members — their dataflow, which
// fixes the arithmetic completely, is untouched. The references are
// each job alone, drained serially by one worker (runSerial); the
// fused forest is checked under all four scheduling policies on four
// workers and once drained serially itself. Run under -race to certify
// the dispatch paths too.
func TestFusedCompositeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	aSmall := mat.Random(48, 48, rng)
	aWide := mat.Random(64, 40, rng)
	bOne := mat.Random(48, 1, rng)
	bMany := mat.Random(48, 3, rng)

	// References: each job alone. The factor graph's tournament bracket
	// follows the worker grid, so references use the same Workers as the
	// fused members; given that, scheduling cannot change the bits.
	ref := Options{Block: 8, Workers: 2, Scheduler: ScheduleHybrid, DynamicRatio: 0.25}
	refSmall := serialFactor(t, aSmall, ref)
	refWide := serialFactor(t, aWide, ref)
	refX1 := serialSolve(t, refSmall.PrepareSolve, bOne, ref)
	refXm := serialSolve(t, refSmall.PrepareSolve, bMany, ref)

	sameX := func(tag string, got, want *mat.Dense) {
		t.Helper()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: X[%d] differs: %x vs %x", tag, i,
					math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
			}
		}
	}

	// One round drains the fused forest serially (the policy is moot
	// there); then every policy runs it on four workers; the last round
	// is hybrid with worker 0 delayed after every task, so the members'
	// pinned tasks — all owned by workers 0 and 1 — are also run through
	// the help tier by the two workers that own nothing.
	type round struct {
		s             Scheduler
		serial, noisy bool
	}
	rounds := []round{{s: ScheduleStatic, serial: true}}
	for _, s := range []Scheduler{ScheduleStatic, ScheduleDynamic, ScheduleHybrid} {
		rounds = append(rounds, round{s: s})
	}
	rounds = append(rounds, round{s: ScheduleHybrid, noisy: true})
	for _, r := range rounds {
		tag := fmt.Sprintf("%s/serial=%v/noisy=%v", r.s, r.serial, r.noisy)
		// Fused graphs are as single-use as their members: prepare
		// fresh jobs every round.
		opt := Options{Block: 8, Workers: 2, Scheduler: r.s, DynamicRatio: 0.25}
		fj1, err := PrepareFactor(aSmall, opt)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		fj2, err := PrepareFactor(aWide, opt)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sj1, err := refSmall.PrepareSolve(bOne, opt)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sj2, err := refSmall.PrepareSolve(bMany, opt)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}

		fused := dag.Fuse(
			dag.FusePart{G: fj1.Graph(), Label: "factor-48"},
			dag.FusePart{G: sj1.Graph(), Label: "solve-48x1"},
			dag.FusePart{G: fj2.Graph(), Label: "factor-64x40"},
			dag.FusePart{G: sj2.Graph(), Label: "solve-48x3"},
		)
		if err := fused.Validate(); err != nil {
			t.Fatalf("%s: fused graph invalid: %v", tag, err)
		}
		ropt := rt.Options{Workers: 4}
		if r.noisy {
			ropt.Noise = delayWorker0(200 * time.Microsecond)
		}
		var res rt.Result
		if r.serial {
			res = runSerial(t, fused)
		} else if res, err = rt.Run(fused, opt.Policy(), ropt); err != nil {
			t.Fatalf("%s: fused run: %v", tag, err)
		}
		if r.noisy && res.Counters.Steals == 0 && runtime.GOMAXPROCS(0) > 1 {
			t.Errorf("%s: no pinned task was helped: %+v", tag, res.Counters)
		}
		sameFactorization(t, tag+"/factor-48", fj1.Finish(res), refSmall)
		sameFactorization(t, tag+"/factor-64x40", fj2.Finish(res), refWide)
		sameX(tag+"/solve-48x1", sj1.Finish(res).X, refX1)
		sameX(tag+"/solve-48x3", sj2.Finish(res).X, refXm)
	}
}
