package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/obs"
	"trajpattern/internal/predict"
	"trajpattern/internal/stat"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

// coreProbe mines ds once on a fresh, instrumented scorer and fills the
// stat.* and core.* layer metrics: the probability kernel over the
// workload's own snapshot×cell pairs, vector building (Prepare over the
// miner's seed cells), the warm NM window kernel over every candidate
// the miner evaluated, and the miner's own accounting.
func coreProbe(ctx context.Context, l *trace.Local, ds traj.Dataset, scfg core.Config, mcfg core.MinerConfig, layers map[string]float64) error {
	reg := obs.New()
	scfg.Metrics = reg
	mcfg.Metrics = reg
	mcfg.CaptureFinalState = true
	var iterAt []time.Duration
	mcfg.OnProgress = func(p core.Progress) { iterAt = append(iterAt, p.Elapsed) }

	t0 := time.Now()
	sp := l.Span("core.NewScorer", nil)
	s, err := core.NewScorer(ds, scfg)
	sp.End()
	if err != nil {
		return err
	}
	cells := s.ObservedCells(1) // the miner's default seed set
	tp := time.Now()
	sp = l.Span("core.Prepare", trace.Attrs{"cells": len(cells)})
	s.Prepare(cells)
	sp.End()
	prepareMS := sinceMS(tp)
	sp = l.Span("core.Mine", nil)
	res, err := core.Mine(ctx, s, mcfg)
	sp.End()
	if err != nil {
		return err
	}
	opMS := sinceMS(t0)
	if res.FinalState == nil {
		return fmt.Errorf("core probe: miner returned no final state")
	}

	snap := reg.Snapshot()
	batchMS := timerMS(snap, obs.Snapshot{}, "scorer.time.batch")
	built := float64(snap.Counter("scorer.cells.built"))
	hits := float64(snap.Counter("scorer.cache.hits"))
	fresh := float64(snap.Counter("miner.candidates.fresh") + snap.Counter("miner.candidates.readmitted"))
	pruned := float64(snap.Counter("miner.pruned.extension") + snap.Counter("miner.pruned.lowcap"))
	var iters []float64
	for i, at := range iterAt {
		prev := time.Duration(0)
		if i > 0 {
			prev = iterAt[i-1]
		}
		iters = append(iters, durMS(at-prev))
	}
	layers["core.prepare_ms"] = prepareMS
	layers["core.cells_built"] = built
	layers["core.nm_evals"] = float64(snap.Counter("scorer.nm.evals"))
	layers["core.batch_ms"] = batchMS
	layers["core.cache_hit_frac"] = hits / (hits + built)
	layers["core.iterations"] = float64(res.Stats.Iterations)
	layers["core.candidates"] = float64(res.Stats.Candidates)
	layers["core.pruned_frac"] = pruned / fresh
	layers["core.iter_ms_p50"] = median(iters)
	layers["core.miner_self_ms"] = opMS - batchMS - prepareMS
	layers["stat.calls"] = built * float64(snapshots(ds))

	// Warm NM over every evaluated candidate (capped, evenly strided).
	pats := strided(res.FinalState.Evaluated, 2000)
	sp = l.Span("core.Scorer.NM", trace.Attrs{"patterns": len(pats)})
	per := make([]float64, 0, len(pats))
	for _, e := range pats {
		t := time.Now()
		s.NM(core.Pattern(e.Cells))
		per = append(per, float64(time.Since(t))/float64(time.Microsecond))
	}
	sp.End()
	layers["core.nm_us"] = median(per)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range pats {
		s.NM(core.Pattern(e.Cells))
	}
	runtime.ReadMemStats(&after)
	layers["core.nm_allocs"] = float64(after.Mallocs-before.Mallocs) / float64(len(pats))

	statProbe(l, ds, scfg, cells, layers)
	return nil
}

// statProbe times the probability kernels over an evenly strided sample
// of the workload's own snapshot×cell pairs (ns per call, median of
// three passes).
func statProbe(l *trace.Local, ds traj.Dataset, scfg core.Config, cells []int, layers map[string]float64) {
	var pts []traj.Point
	for _, tr := range ds {
		pts = append(pts, tr...)
	}
	type pair struct {
		pt traj.Point
		c  geom.Point
	}
	sample := func(n int) []pair {
		total := len(pts) * len(cells)
		step := total / n
		if step < 1 {
			step = 1
		}
		out := make([]pair, 0, n)
		for i := 0; i < total && len(out) < n; i += step {
			out = append(out, pair{pts[i%len(pts)], scfg.Grid.CenterAt(cells[(i/len(pts))%len(cells)])})
		}
		return out
	}
	d := scfg.Delta
	timeKernel := func(name string, ps []pair, f func(lx, ly, s, px, py, d float64) float64) float64 {
		var runs []float64
		for r := 0; r < 3; r++ {
			sp := l.Span(name, trace.Attrs{"pairs": len(ps)})
			t := time.Now()
			var acc float64
			for _, p := range ps {
				acc += f(p.pt.Mean.X, p.pt.Mean.Y, p.pt.Sigma, p.c.X, p.c.Y, d)
			}
			runs = append(runs, float64(time.Since(t))/float64(len(ps)))
			sp.Attr("sum", acc).End()
		}
		return median(runs)
	}
	layers["stat.box_ns"] = timeKernel("stat.BoxProb2D", sample(50000), stat.BoxProb2D)
	layers["stat.disk_ns"] = timeKernel("stat.DiskProb2D", sample(2000), stat.DiskProb2D)
}

// predictProbe times 10×Observe + Predict of the server's predictor
// configuration outside HTTP (µs, median over the histories).
func predictProbe(l *trace.Local, mk func() *predict.PatternPredictor, histories [][]geom.Point, layers map[string]float64) {
	sp := l.Span("predict.PatternPredictor", trace.Attrs{"histories": len(histories)})
	var per []float64
	for r := 0; r < 20; r++ {
		for _, h := range histories {
			t := time.Now()
			pp := mk()
			for _, p := range h {
				pp.Observe(p)
			}
			pp.Predict()
			per = append(per, float64(time.Since(t))/float64(time.Microsecond))
		}
	}
	sp.End()
	layers["predict.us"] = median(per)
}

func snapshots(ds traj.Dataset) int {
	n := 0
	for _, tr := range ds {
		n += len(tr)
	}
	return n
}

func strided[T any](xs []T, max int) []T {
	if len(xs) <= max {
		return xs
	}
	out := make([]T, 0, max)
	step := float64(len(xs)) / float64(max)
	for i := 0; i < max; i++ {
		out = append(out, xs[int(float64(i)*step)])
	}
	return out
}
