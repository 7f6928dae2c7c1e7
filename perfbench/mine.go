package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// mineSpec is one batch-mining workload: the dataset size and the miner
// settings trajmine would be run with.
type mineSpec struct {
	s, l      int
	k, maxLen int
	mode      core.ProbMode
}

var (
	// mineBox is the paper's e3 base point: the window kernel, the
	// scorer cache and the miner iterations do most of the work.
	mineBox = mineSpec{s: 80, l: 60, k: 10, maxLen: 6, mode: core.ProbBox}
	// mineDisk is the one workload where the Rice-CDF kernel dominates
	// (Prepare is most of each mine).
	mineDisk = mineSpec{s: 60, l: 50, k: 5, maxLen: 4, mode: core.ProbDisk}
)

// minTimedMines is the least number of timed mines a run makes, however
// short --seconds is.
const minTimedMines = 3

// mineOnce is one complete top-k mine on a fresh scorer, as every
// trajmine run pays for it. A non-nil l records spans around each call
// and splits vector building out as an explicit Prepare of the miner's
// seed cells (which Mine would otherwise do in its first batch),
// returning its duration; reg turns on the program's metrics.
func mineOnce(ctx context.Context, ds traj.Dataset, g *grid.Grid, spec mineSpec, l *trace.Local, reg *obs.Registry) (res *core.Result, prepareMS float64, err error) {
	sp := l.Span("core.NewScorer", nil)
	s, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Mode: spec.mode, Metrics: reg})
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	if l != nil {
		t := time.Now()
		sp = l.Span("core.Prepare", nil)
		s.Prepare(s.ObservedCells(1))
		sp.End()
		prepareMS = sinceMS(t)
	}
	sp = l.Span("core.Mine", nil)
	res, err = core.Mine(ctx, s, core.MinerConfig{K: spec.k, MaxLen: spec.maxLen, Metrics: reg})
	sp.End()
	return res, prepareMS, err
}

func runMine(ctx context.Context, rc runConfig, spec mineSpec) (*outcome, error) {
	o := newOutcome(fmt.Sprintf("median wall time of NewScorer+Mine, %s mode, S=%d L=%d k=%d MaxLen=%d", spec.mode, spec.s, spec.l, spec.k, spec.maxLen))
	var (
		ds  traj.Dataset
		g   *grid.Grid
		err error
	)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if ds, err = zebraDataset(spec.s, spec.l, rc.seed); err != nil {
			return nil, err
		}
		g = cli.FitGrid(ds, 12)
		if _, _, err := mineOnce(ctx, ds, g, spec, nil, nil); err != nil {
			return nil, fmt.Errorf("warm-up mine: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	runtime.GC() // one phase's garbage must not count against the next one's peak
	l := rc.tr.Local()
	reg := obs.New()
	var results []*core.Result
	var selfBench, selfPrepare, selfMiner, selfScorer float64
	heap := startHeapPeak()
	end := time.Now().Add(rc.seconds)
	for i := 0; i < minTimedMines || time.Now().Before(end); i++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		traced := rc.trace && i%2 == 0
		var tl *trace.Local
		var treg *obs.Registry
		var before obs.Snapshot
		if traced {
			tl, treg = l, reg
			before = reg.Snapshot()
		}
		sp := tl.Span("bench.mine", trace.Attrs{"i": i})
		t0 := time.Now()
		res, prepare, err := mineOnce(ctx, ds, g, spec, tl, treg)
		ms := sinceMS(t0)
		sp.End()
		if err != nil {
			o.ops.fail(fmt.Sprintf("mine error: %v", err))
			continue
		}
		if res.Interrupted {
			o.ops.fail("mine interrupted: " + res.InterruptReason)
			continue
		}
		results = append(results, res)
		if !traced {
			o.op = append(o.op, ms)
			continue
		}
		o.tracedOp = append(o.tracedOp, ms)
		after := reg.Snapshot()
		batch := timerMS(after, before, "scorer.time.batch")
		miner := timerMS(after, before, "miner.time.total")
		selfScorer += batch
		selfMiner += miner - batch
		selfPrepare += prepare
		selfBench += ms - miner - prepare
	}
	o.heapMB, o.heapMax = heap.Stop()

	// Output checks: the same top-k every mine, and every reported NM
	// within 1e-9 of a serial re-score on a fresh scorer.
	if len(results) > 0 {
		ref := results[0].Patterns
		fresh, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth(), Mode: spec.mode, Workers: 1})
		if err != nil {
			return nil, err
		}
		want := make(map[string]float64, len(ref))
		for _, sp := range ref {
			want[sp.Pattern.Key()] = fresh.NM(sp.Pattern)
		}
		for _, res := range results {
			ok := len(res.Patterns) == len(ref) && len(ref) == spec.k
			for j, sp := range res.Patterns {
				if !ok {
					break
				}
				w, found := want[sp.Pattern.Key()]
				ok = found && sp.Pattern.Key() == ref[j].Pattern.Key() && relClose(sp.NM, w)
			}
			o.checkOutput(ok, "top-k differs from the first mine or from a serial re-score")
		}
		o.notef("top-%d of the first mine: %s", len(ref), topK(ref))
	}

	if rc.trace {
		n := float64(len(o.tracedOp))
		o.layers["self.bench_ms"] = selfBench / n
		o.layers["self.core_prepare_ms"] = selfPrepare / n
		o.layers["self.core_miner_ms"] = selfMiner / n
		o.layers["self.core_scorer_ms"] = selfScorer / n
		if err := coreProbe(ctx, l, ds, core.Config{Grid: g, Delta: g.CellWidth(), Mode: spec.mode},
			core.MinerConfig{K: spec.k, MaxLen: spec.maxLen}, o.layers); err != nil {
			return nil, err
		}
		o.notef("core.prepare_ms is %.0f%% of op_ms_p50", 100*o.layers["core.prepare_ms"]/median(o.op))
	}
	return o, nil
}

// topK formats a top-k answer for the summary.
func topK(ps []core.ScoredPattern) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = "[" + p.Pattern.Key() + "]"
	}
	return strings.Join(parts, " ")
}
