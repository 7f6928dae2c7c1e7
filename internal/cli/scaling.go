package cli

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"trajpattern/internal/core"
	"trajpattern/internal/datagen"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// DefaultScalingFloor is the minimum parallel efficiency required at the
// largest worker count when a baseline does not pin its own floor. The
// value is deliberately lenient: efficiency is normalized by
// min(workers, GOMAXPROCS), so it gates "parallel scoring stopped helping /
// started actively hurting", not "this runner is slower than last week's".
const DefaultScalingFloor = 0.35

// DefaultScalingCounts are the scorer worker counts the scaling curve
// measures.
var DefaultScalingCounts = []int{1, 2, 4}

// ScalingOptions parameterizes RunScaling.
type ScalingOptions struct {
	// Counts are the worker counts to measure; the first entry must be 1
	// (the speedup reference). Nil means DefaultScalingCounts.
	Counts []int
	// Scale shrinks the workload like the bench experiments; zero means 1.
	Scale float64
	// Seed seeds the zebra workload.
	Seed uint64
	// Tracer, when non-nil, records the runs' spans on the shared timeline.
	Tracer *trace.Tracer
}

// ScalingEntry is one worker count's measurement in the scaling block.
type ScalingEntry struct {
	Workers int   `json:"workers"`
	NS      int64 `json:"ns"`
	// Speedup is t(1 worker) / t(Workers); Efficiency divides it by
	// min(Workers, GOMAXPROCS) — the parallelism actually available — so
	// the number is comparable between a 1-CPU container and a 4-CPU
	// runner. Neither is deterministic; the gate applies a lenient floor.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// Work holds the deterministic counters of this worker count's run,
	// compared two-sided like the experiment counters. RunScaling also
	// requires them to equal the 1-worker run's exactly.
	Work map[string]int64 `json:"work,omitempty"`
}

// ScalingResult is the "scaling" block of bench.json: the miner run at
// increasing scorer worker counts over one seeded zebra workload.
type ScalingResult struct {
	Zebras     int    `json:"zebras"`
	AvgLen     int    `json:"avg_len"`
	GridN      int    `json:"grid_n"`
	K          int    `json:"k"`
	Seed       uint64 `json:"seed"`
	GoMaxProcs int    `json:"gomaxprocs"`
	// Floor is the efficiency floor this result enforces as a baseline;
	// zero falls back to DefaultScalingFloor at check time.
	Floor   float64        `json:"floor"`
	Entries []ScalingEntry `json:"entries"`
}

// String renders the scaling curve as a small aligned table.
func (r *ScalingResult) String() string {
	out := fmt.Sprintf("scaling: zebra n=%d len=%d grid=%d k=%d seed=%d gomaxprocs=%d\n",
		r.Zebras, r.AvgLen, r.GridN, r.K, r.Seed, r.GoMaxProcs)
	out += "workers     time   speedup   efficiency\n"
	for _, e := range r.Entries {
		out += fmt.Sprintf("%7d  %7.2fs  %8.2f  %11.2f\n",
			e.Workers, time.Duration(e.NS).Seconds(), e.Speedup, e.Efficiency)
	}
	return out
}

// RunScaling measures the miner's scaling curve: the same seeded zebra
// workload mined at each scorer worker count with a fresh scorer (cold
// caches, so the timings are comparable), verifying along the way that
// every worker count returns the 1-worker top-k bit for bit and does
// exactly the 1-worker work — a mismatch is an error, not a drift.
func RunScaling(ctx context.Context, w io.Writer, o ScalingOptions) (*ScalingResult, error) {
	if o.Scale == 0 {
		o.Scale = 1
	}
	counts := o.Counts
	if counts == nil {
		counts = DefaultScalingCounts
	}
	if len(counts) == 0 || counts[0] != 1 {
		return nil, fmt.Errorf("cli: scaling counts must start with 1, got %v", counts)
	}

	res := &ScalingResult{
		Zebras:     scaled(80, o.Scale),
		AvgLen:     scaled(80, o.Scale),
		GridN:      12,
		K:          10,
		Seed:       o.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Floor:      DefaultScalingFloor,
	}
	ds, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: res.Zebras, AvgLen: res.AvgLen, Seed: o.Seed,
	}, 0.01, 1)
	if err != nil {
		return nil, err
	}
	g := FitGrid(ds, res.GridN)

	var (
		ref     []core.ScoredPattern
		refWork map[string]int64
	)
	for _, n := range counts {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cli: scaling interrupted before %d workers: %w", n, context.Cause(ctx))
		}
		if n < 1 {
			return nil, fmt.Errorf("cli: scaling worker count must be >= 1, got %d", n)
		}
		reg := obs.New()
		s, err := core.NewScorer(ds, core.Config{
			Grid: g, Delta: g.CellWidth(), Workers: n, Metrics: reg, Tracer: o.Tracer,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		mres, err := core.Mine(ctx, s, core.MinerConfig{
			K: res.K, MaxLowQ: 4 * res.K, Metrics: reg, Tracer: o.Tracer,
		})
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("cli: scaling at %d workers: %w", n, err)
		}
		if mres.Interrupted {
			return nil, fmt.Errorf("cli: scaling at %d workers interrupted: %s", n, mres.InterruptReason)
		}

		work := workCounters(reg.Snapshot())
		if ref == nil {
			ref, refWork = mres.Patterns, work
		} else {
			if i := firstPatternDiff(ref, mres.Patterns); i >= 0 {
				return nil, fmt.Errorf(
					"cli: scaling at %d workers returned a different top-%d than 1 worker (first difference at rank %d): %v vs %v",
					n, res.K, i, mres.Patterns, ref)
			}
			if d := firstCounterDiff(refWork, work); d != "" {
				return nil, fmt.Errorf("cli: scaling at %d workers did different work than 1 worker: %s", n, d)
			}
		}

		entry := ScalingEntry{
			Workers: n,
			NS:      elapsed.Nanoseconds(),
			Work:    work,
		}
		if len(res.Entries) > 0 {
			base := float64(res.Entries[0].NS)
			if base > 0 && elapsed.Nanoseconds() > 0 {
				entry.Speedup = base / float64(elapsed.Nanoseconds())
				entry.Efficiency = entry.Speedup / math.Min(float64(entry.Workers), float64(res.GoMaxProcs))
			}
		} else {
			entry.Speedup = 1
			entry.Efficiency = 1
		}
		res.Entries = append(res.Entries, entry)
	}
	fmt.Fprintln(w, res.String())
	return res, nil
}

// scaled shrinks a workload dimension like the exp sweeps do, with a
// floor that keeps the parallel runs meaningful.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 8 {
		v = 8
	}
	return v
}

// firstPatternDiff returns the first rank at which a and b differ in
// pattern or in the exact bits of its NM score, or -1 when they are
// identical.
func firstPatternDiff(a, b []core.ScoredPattern) int {
	for i := range a {
		if i >= len(b) || a[i].Pattern.Key() != b[i].Pattern.Key() ||
			math.Float64bits(a[i].NM) != math.Float64bits(b[i].NM) {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// firstCounterDiff names the first counter (in name order) whose value
// differs between a and b, or returns "" when the two sets are equal.
func firstCounterDiff(a, b map[string]int64) string {
	names := make([]string, 0, len(a)+len(b))
	for k := range a {
		names = append(names, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		av, aok := a[k]
		bv, bok := b[k]
		if aok != bok || av != bv {
			return fmt.Sprintf("%s = %d vs %d", k, bv, av)
		}
	}
	return ""
}

// CheckScaling compares a run's scaling block against a baseline's. Two
// gates apply:
//
//   - The efficiency floor: the current run's largest worker count must
//     reach the baseline's Floor. This is the one wall-clock-derived gate
//     in CI, normalized by available parallelism so it fails on "parallel
//     scoring stopped scaling", not on runner-to-runner noise. It
//     is skipped entirely when the current machine has a single CPU,
//     where no scaling measurement is possible.
//   - The deterministic work counters of each worker count, two-sided
//     within tolPct, exactly like the experiment counters: more work is a
//     regression, less is a silently shrunken workload.
//
// A nil baseline block (older baseline file) checks nothing; a workload
// mismatch makes the blocks incomparable and is itself a violation.
func CheckScaling(baseline, current *ScalingResult, tolPct float64) []string {
	if baseline == nil {
		return nil
	}
	if current == nil {
		return []string{"scaling: baseline has a scaling block but this run measured none (run with -scaling)"}
	}
	if baseline.Zebras != current.Zebras || baseline.AvgLen != current.AvgLen ||
		baseline.GridN != current.GridN || baseline.K != current.K || baseline.Seed != current.Seed {
		return []string{fmt.Sprintf(
			"scaling: baseline workload (n=%d len=%d grid=%d k=%d seed=%d) differs from current (n=%d len=%d grid=%d k=%d seed=%d) — incomparable",
			baseline.Zebras, baseline.AvgLen, baseline.GridN, baseline.K, baseline.Seed,
			current.Zebras, current.AvgLen, current.GridN, current.K, current.Seed)}
	}
	var out []string

	floor := baseline.Floor
	if floor <= 0 {
		floor = DefaultScalingFloor
	}
	// The floor only means something when parallel hardware exists: on a
	// single-CPU machine the "efficiency" of a multi-worker run is a pure
	// overhead ratio, not a scaling measurement, so the gate stands down.
	if len(current.Entries) > 0 && current.GoMaxProcs > 1 {
		last := current.Entries[len(current.Entries)-1]
		if last.Workers > 1 && last.Efficiency < floor {
			out = append(out, fmt.Sprintf(
				"scaling: parallel efficiency %.2f at %d workers is below the floor %.2f (speedup %.2f, gomaxprocs %d)",
				last.Efficiency, last.Workers, floor, last.Speedup, current.GoMaxProcs))
		}
	}

	curByWorkers := make(map[int]ScalingEntry, len(current.Entries))
	for _, e := range current.Entries {
		curByWorkers[e.Workers] = e
	}
	for _, be := range baseline.Entries {
		ce, ok := curByWorkers[be.Workers]
		if !ok {
			out = append(out, fmt.Sprintf("scaling: worker count %d missing from this run", be.Workers))
			continue
		}
		keys := make([]string, 0, len(be.Work))
		for k := range be.Work {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv := be.Work[k]
			cv, ok := ce.Work[k]
			if !ok {
				out = append(out, fmt.Sprintf("scaling[%d]: counter %s missing (baseline %d)", be.Workers, k, bv))
				continue
			}
			if bv == 0 {
				if cv != 0 {
					out = append(out, fmt.Sprintf("scaling[%d]: %s = %d, baseline 0", be.Workers, k, cv))
				}
				continue
			}
			drift := 100 * (float64(cv) - float64(bv)) / float64(bv)
			if drift > tolPct || drift < -tolPct {
				out = append(out, fmt.Sprintf("scaling[%d]: %s = %d vs baseline %d (%+.1f%%, tolerance ±%.4g%%)",
					be.Workers, k, cv, bv, drift, tolPct))
			}
		}
	}
	return out
}
