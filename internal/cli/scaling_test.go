package cli

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"trajpattern/internal/core"
)

func scalingEntry(workers int, eff float64, work map[string]int64) ScalingEntry {
	return ScalingEntry{Workers: workers, NS: 1000, Speedup: eff, Efficiency: eff, Work: work}
}

func scalingFixture(procs int) *ScalingResult {
	return &ScalingResult{
		Zebras: 24, AvgLen: 24, GridN: 12, K: 10, Seed: 1, GoMaxProcs: procs,
		Floor: 0.5,
		Entries: []ScalingEntry{
			scalingEntry(1, 1.0, map[string]int64{"miner.candidates": 100}),
			scalingEntry(4, 0.8, map[string]int64{"miner.candidates": 100}),
		},
	}
}

func TestCheckScalingNilBaseline(t *testing.T) {
	if v := CheckScaling(nil, scalingFixture(4), 10); v != nil {
		t.Errorf("nil baseline produced violations: %v", v)
	}
}

func TestCheckScalingMissingCurrent(t *testing.T) {
	v := CheckScaling(scalingFixture(4), nil, 10)
	if len(v) != 1 || !strings.Contains(v[0], "-scaling") {
		t.Errorf("missing current block not flagged: %v", v)
	}
}

func TestCheckScalingWorkloadMismatch(t *testing.T) {
	cur := scalingFixture(4)
	cur.Zebras = 48
	v := CheckScaling(scalingFixture(4), cur, 10)
	if len(v) != 1 || !strings.Contains(v[0], "incomparable") {
		t.Errorf("workload mismatch not flagged: %v", v)
	}
}

func TestCheckScalingEfficiencyFloor(t *testing.T) {
	cur := scalingFixture(4)
	cur.Entries[1].Efficiency = 0.2
	v := CheckScaling(scalingFixture(4), cur, 10)
	if len(v) != 1 || !strings.Contains(v[0], "below the floor") {
		t.Errorf("efficiency below floor not flagged: %v", v)
	}
	// Same numbers on a single-CPU machine measure overhead, not scaling:
	// the floor stands down.
	cur.GoMaxProcs = 1
	if v := CheckScaling(scalingFixture(4), cur, 10); len(v) != 0 {
		t.Errorf("floor applied on a 1-CPU run: %v", v)
	}
}

func TestCheckScalingWorkDrift(t *testing.T) {
	cur := scalingFixture(4)
	cur.Entries[1].Work = map[string]int64{"miner.candidates": 200}
	v := CheckScaling(scalingFixture(4), cur, 10)
	if len(v) != 1 || !strings.Contains(v[0], "miner.candidates") {
		t.Errorf("work drift not flagged: %v", v)
	}
	// Two-sided: shrinking work is flagged too.
	cur.Entries[1].Work = map[string]int64{"miner.candidates": 1}
	if v := CheckScaling(scalingFixture(4), cur, 10); len(v) != 1 {
		t.Errorf("shrunken work not flagged: %v", v)
	}
}

func TestCheckScalingMissingWorkerCount(t *testing.T) {
	cur := scalingFixture(4)
	cur.Entries = cur.Entries[:1]
	v := CheckScaling(scalingFixture(4), cur, 10)
	if len(v) != 1 || !strings.Contains(v[0], "worker count 4 missing") {
		t.Errorf("missing worker count not flagged: %v", v)
	}
}

func TestRunScalingSmall(t *testing.T) {
	var buf bytes.Buffer
	res, err := RunScaling(context.Background(), &buf, ScalingOptions{
		Counts: []int{1, 2}, Scale: 0.1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 2 {
		t.Fatalf("entries = %d", len(res.Entries))
	}
	if res.Entries[0].Workers != 1 || res.Entries[0].Speedup != 1 {
		t.Errorf("reference entry = %+v", res.Entries[0])
	}
	if res.Entries[1].Workers != 2 {
		t.Errorf("second entry workers = %d", res.Entries[1].Workers)
	}
	if len(res.Entries[1].Work) == 0 {
		t.Error("no work counters recorded")
	}
	if d := firstCounterDiff(res.Entries[0].Work, res.Entries[1].Work); d != "" {
		t.Errorf("work differs between worker counts: %s", d)
	}
	if !strings.Contains(buf.String(), "scaling:") {
		t.Errorf("missing table header:\n%s", buf.String())
	}
}

func TestRunScalingRejectsBadCounts(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunScaling(context.Background(), &buf, ScalingOptions{Counts: []int{2, 4}}); err == nil {
		t.Error("counts not starting at 1 accepted")
	}
	if _, err := RunScaling(context.Background(), &buf, ScalingOptions{Counts: []int{1, 0}, Scale: 0.1}); err == nil {
		t.Error("zero worker count accepted")
	}
}

// TestScalingDiffsAreExact: the cross-worker agreement checks compare NM
// scores bit for bit and counters by exact value, so a last-ulp or
// one-count difference is caught.
func TestScalingDiffsAreExact(t *testing.T) {
	a := []core.ScoredPattern{{Pattern: core.Pattern{1, 2}, NM: -1.5}, {Pattern: core.Pattern{3}, NM: -2}}
	b := []core.ScoredPattern{{Pattern: core.Pattern{1, 2}, NM: -1.5}, {Pattern: core.Pattern{3}, NM: math.Nextafter(-2, 0)}}
	if i := firstPatternDiff(a, a); i != -1 {
		t.Errorf("identical top-k differs at %d", i)
	}
	if i := firstPatternDiff(a, b); i != 1 {
		t.Errorf("last-ulp score difference found at %d, want 1", i)
	}
	if i := firstPatternDiff(a, a[:1]); i != 1 {
		t.Errorf("shorter top-k found at %d, want 1", i)
	}
	if i := firstPatternDiff(a[:1], a); i != 1 {
		t.Errorf("longer top-k found at %d, want 1", i)
	}
	w := map[string]int64{"miner.candidates": 10, "scorer.nm.evals": 12}
	if d := firstCounterDiff(w, map[string]int64{"miner.candidates": 10, "scorer.nm.evals": 12}); d != "" {
		t.Errorf("equal counters differ: %s", d)
	}
	if d := firstCounterDiff(w, map[string]int64{"miner.candidates": 10, "scorer.nm.evals": 13}); !strings.Contains(d, "scorer.nm.evals") {
		t.Errorf("off-by-one counter not named: %q", d)
	}
	if d := firstCounterDiff(w, map[string]int64{"miner.candidates": 10}); !strings.Contains(d, "scorer.nm.evals") {
		t.Errorf("missing counter not named: %q", d)
	}
}
