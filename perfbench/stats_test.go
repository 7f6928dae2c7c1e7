package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"trajpattern/internal/obs"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false},
		{19, 0, false},
		{20, 50, true}, // ~20 mines: p50 is the highest with 10 beyond it
		{99, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
		{1_000_000, 99.9, true},
	} {
		p, ok := highestPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestSummarizeStatesCountAndTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 200 || s.P50 != 100.5 || s.TailP != 90 {
		t.Fatalf("summarize = %+v; want N=200 P50=100.5 TailP=90", s)
	}
	if want := quantile(xs, 0.9); s.Tail != want {
		t.Errorf("tail = %v, want %v", s.Tail, want)
	}
	if small := summarize(xs[:19]); small.TailP != 0 || small.N != 19 {
		t.Errorf("19 samples: %+v; want no percentile and N=19", small)
	}
}

func TestPctCapsAtSupportedPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	// 100 samples support p90 but not p99: a p99 request reads p90.
	if got, want := pct(xs, 0.99), quantile(xs, 0.9); got != want {
		t.Errorf("pct(100 samples, 0.99) = %v, want the p90 %v", got, want)
	}
	if got := pct(xs[:10], 0.5); got != 0 {
		t.Errorf("pct of 10 samples = %v, want 0", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestHistQuantile(t *testing.T) {
	h := obs.HistogramStat{
		Count:  10,
		Bounds: []float64{1, 2, 4},
		Counts: []int64{2, 4, 4, 0},
	}
	// Rank 5 of 10 sits 3/4 through the (1,2] bucket.
	if got := histQuantile(h, 0.5); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("p50 = %v, want 1.75", got)
	}
	if got := histQuantile(h, 0.1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("p10 = %v, want 0.5", got)
	}
	over := obs.HistogramStat{Count: 1, Bounds: []float64{1}, Counts: []int64{0, 1}}
	if got := histQuantile(over, 0.5); got != 1 {
		t.Errorf("+Inf bucket = %v, want the last finite bound 1", got)
	}
	if got := histQuantile(obs.HistogramStat{}, 0.5); got != 0 {
		t.Errorf("empty = %v, want 0", got)
	}
	d := histDelta(h, obs.HistogramStat{Count: 2, Sum: 1, Bounds: h.Bounds, Counts: []int64{2, 0, 0, 0}})
	if d.Count != 8 || d.Counts[0] != 0 || d.Counts[1] != 4 {
		t.Errorf("delta = %+v", d)
	}
}

// ms is a shorthand for durations in the synthetic sequences below.
func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestFreshnessAttribution(t *testing.T) {
	// The poller's view: generation 1 published and idle at 0–10 ms,
	// generation 2 mining from 20 ms, published at 50 ms with 3 already
	// mining, 3 published at 90 ms, idle from then on.
	polls := []statusPoll{
		{At: ms(0), Gen: 1},
		{At: ms(10), Gen: 1},
		{At: ms(20), Gen: 1, Mining: true},
		{At: ms(30), Gen: 1, Mining: true},
		{At: ms(50), Gen: 2, Mining: true},
		{At: ms(70), Gen: 2, Mining: true},
		{At: ms(90), Gen: 3},
		{At: ms(100), Gen: 3},
	}
	for _, tc := range []struct {
		name     string
		due, ack time.Duration
		gen      int
		fresh    float64 // ms
	}{
		// Acked while idle: the next generation to start includes it.
		{"idle", ms(3), ms(5), 2, 47},
		// Acked between an idle poll and a mining one: generation 2 may
		// have started before the ack, so only 3 is certain.
		{"racing a start", ms(11), ms(12), 3, 79},
		// Acked while 2 mines: 2's snapshot predates it; 3 is next.
		{"mid-mine", ms(21), ms(25), 3, 69},
		// Acked while 3 mines (started at the 2 publish): only 4 is
		// certain, and the poller never saw 4.
		{"unresolved", ms(60), ms(61), 4, -1},
		// Acked after the last poll.
		{"no poll after ack", ms(101), ms(102), 0, -1},
	} {
		g, ok := includedGeneration(polls, tc.ack)
		if tc.gen == 0 {
			if ok {
				t.Errorf("%s: got generation %d, want none", tc.name, g)
			}
			continue
		}
		if !ok || g != tc.gen {
			t.Errorf("%s: generation %d (%v), want %d", tc.name, g, ok, tc.gen)
		}
		got, unresolved := freshness([]time.Duration{tc.due}, []time.Duration{tc.ack}, polls, 0)
		if tc.fresh < 0 {
			if unresolved != 1 || len(got) != 0 {
				t.Errorf("%s: freshness %v unresolved %d, want unresolved", tc.name, got, unresolved)
			}
			continue
		}
		if unresolved != 0 || len(got) != 1 || math.Abs(got[0]-tc.fresh) > 1e-9 {
			t.Errorf("%s: freshness %v (unresolved %d), want %v ms", tc.name, got, unresolved, tc.fresh)
		}
	}
}

func TestFreshnessAfterQuiescence(t *testing.T) {
	// Load stopped at 61 ms while generation 3 mined; 3 was the last
	// generation, so it holds every report, including the one the
	// mid-mine rule alone would pin on a generation 4 that never comes.
	polls := []statusPoll{
		{At: ms(50), Gen: 2, Mining: true},
		{At: ms(70), Gen: 2, Mining: true},
		{At: ms(90), Gen: 3},
		{At: ms(150), Gen: 3},
		{At: ms(200), Gen: 3},
	}
	if _, ok := quiescentGeneration(polls[:4], ms(61), ms(100)); ok {
		t.Error("60 ms of idle polls passed as quiescent for a 100 ms span")
	}
	final, ok := quiescentGeneration(polls, ms(61), ms(100))
	if !ok || final != 3 {
		t.Fatalf("quiescent generation %d, %v; want 3", final, ok)
	}
	got, unresolved := freshness([]time.Duration{ms(60)}, []time.Duration{ms(61)}, polls, final)
	if unresolved != 0 || len(got) != 1 || got[0] != 30 {
		t.Errorf("freshness %v (unresolved %d), want [30]", got, unresolved)
	}
	busy := append(append([]statusPoll(nil), polls...), statusPoll{At: ms(210), Gen: 3, Mining: true})
	if _, ok := quiescentGeneration(busy, ms(61), ms(100)); ok {
		t.Error("a running re-mine passed as quiescent")
	}
}

func TestTallyCountsEveryFailure(t *testing.T) {
	var tl tally
	if tl.frac() != 0 {
		t.Error("empty tally should read 0")
	}
	tl.ok()
	tl.check(true, "unused")
	tl.fail("429")
	tl.check(false, "wrong answer")
	tl.check(false, "wrong answer")
	if tl.attempted != 5 || tl.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", tl.attempted, tl.failed)
	}
	if tl.reasons["wrong answer"] != 2 || tl.reasons["429"] != 1 || len(tl.reasons) != 2 {
		t.Errorf("reasons = %v", tl.reasons)
	}
	if tl.frac() != 0.6 {
		t.Errorf("frac = %v, want 0.6", tl.frac())
	}

	var o outcome
	o.checkOutput(true, "x")
	o.checkOutput(false, "mismatch")
	o.ops.fail("refused")
	if o.wrong != 1 || o.ops.failed != 2 || o.ops.attempted != 3 {
		t.Errorf("outcome: wrong %d failed %d attempted %d, want 1, 2, 3", o.wrong, o.ops.failed, o.ops.attempted)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json next to perfbench: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
