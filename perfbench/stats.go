package main

import (
	"math"
	"sort"
	"time"

	"trajpattern/internal/obs"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted; it is
// not modified. An empty sample yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// highestPercentile returns the highest percentile of percentileLadder
// that has at least minBeyond of n samples beyond it; ok is false when
// even the median has fewer (n < 2·minBeyond).
func highestPercentile(n int) (p float64, ok bool) {
	for i := len(percentileLadder) - 1; i >= 0; i-- {
		p := percentileLadder[i]
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// timing summarises one latency sample: its median and the highest
// percentile the sample count supports, with the count stated.
type timing struct {
	N     int
	P50   float64
	TailP float64 // 0 when the sample is too small for any percentile
	Tail  float64
}

func summarize(xs []float64) timing {
	t := timing{N: len(xs), P50: median(xs)}
	if p, ok := highestPercentile(len(xs)); ok {
		t.TailP, t.Tail = p, quantile(xs, p/100)
	}
	return t
}

// pct returns the q-quantile of xs when at least minBeyond samples lie
// beyond it, else the highest percentile that has them (and 0 when there
// is none). Per-layer tail metrics use it so a p99 is never read off a
// sample too small to have one.
func pct(xs []float64, q float64) float64 {
	p, ok := highestPercentile(len(xs))
	if !ok {
		return 0
	}
	if p/100 < q {
		q = p / 100
	}
	return quantile(xs, q)
}

// histQuantile estimates the q-quantile of an obs histogram snapshot by
// linear interpolation inside the bucket holding the target rank. The
// lower edge of the first bucket is 0; an answer in the +Inf bucket is
// the last finite bound. An empty histogram yields 0.
func histQuantile(h obs.HistogramStat, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			if i >= len(h.Bounds) {
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			return lo + (h.Bounds[i]-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// histDelta returns after − before bucket by bucket, so a phase of a run
// can be read off a registry that was also fed before the phase began.
func histDelta(after, before obs.HistogramStat) obs.HistogramStat {
	if before.Count == 0 {
		return after
	}
	d := obs.HistogramStat{
		Count:  after.Count - before.Count,
		Sum:    after.Sum - before.Sum,
		Bounds: after.Bounds,
		Counts: make([]int64, len(after.Counts)),
	}
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
	}
	return d
}

// tally counts operations attempted and failed. A failed operation is
// one that errored, was refused (429/503) or failed an output check;
// every failure keeps its reason so a run never summarises one away.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

func (t *tally) ok() { t.attempted++ }

// fail counts one attempted operation that failed for reason.
func (t *tally) fail(reason string) {
	t.attempted++
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// check counts one attempted operation, failed unless cond holds.
func (t *tally) check(cond bool, reason string) {
	if cond {
		t.ok()
	} else {
		t.fail(reason)
	}
}

func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// statusPoll is one GET /v1/ingest/status observation: when the poller
// received it, the latest published generation and whether a re-mine
// was running.
type statusPoll struct {
	At     time.Duration
	Gen    int
	Mining bool
}

// includedGeneration returns the first generation whose window snapshot
// provably contains a report acknowledged at ack: the first poll at or
// after ack shows generation g published and, if a re-mine is running,
// generation g+1 possibly started before the ack, so the report is
// certain only from the next one to start. ok is false when no poll
// follows the ack.
func includedGeneration(polls []statusPoll, ack time.Duration) (gen int, ok bool) {
	i := sort.Search(len(polls), func(i int) bool { return polls[i].At >= ack })
	if i == len(polls) {
		return 0, false
	}
	if polls[i].Mining {
		return polls[i].Gen + 2, true
	}
	return polls[i].Gen + 1, true
}

// publishedAt returns when the poller first saw generation gen (or a
// later one) published.
func publishedAt(polls []statusPoll, gen int) (time.Duration, bool) {
	i := sort.Search(len(polls), func(i int) bool { return polls[i].Gen >= gen })
	if i == len(polls) {
		return 0, false
	}
	return polls[i].At, true
}

// quiescentGeneration reports the generation the re-mining loop settled
// on: every poll from after through the last one shows it published and
// no re-mine running, for at least span. Applying a report nudges the
// loop, so a loop that stays idle has mined every report applied before
// its last generation started — all of them, once ingest has stopped.
func quiescentGeneration(polls []statusPoll, after, span time.Duration) (int, bool) {
	if len(polls) == 0 {
		return 0, false
	}
	last := polls[len(polls)-1]
	if last.Mining || last.Gen < 1 {
		return 0, false
	}
	for i := len(polls) - 1; i >= 0 && polls[i].At >= after; i-- {
		if polls[i].Mining || polls[i].Gen != last.Gen {
			return 0, false
		}
		if last.At-polls[i].At >= span {
			return last.Gen, true
		}
	}
	return 0, false
}

// freshness attributes every acknowledged report to the first generation
// that provably includes it and returns, per resolved report, the time
// from its scheduled send (due) to that generation's observed publish in
// ms. final, when positive, is the quiescent generation, which includes
// every report. The result is an upper bound, off by at most one poll
// interval. Reports whose generation the poller never saw published are
// counted in unresolved. due and ack are parallel.
func freshness(due, ack []time.Duration, polls []statusPoll, final int) (ms []float64, unresolved int) {
	for i := range ack {
		g, ok := includedGeneration(polls, ack[i])
		if final > 0 && (!ok || g > final) {
			g, ok = final, true
		}
		if !ok {
			unresolved++
			continue
		}
		pub, ok := publishedAt(polls, g)
		if !ok {
			unresolved++
			continue
		}
		ms = append(ms, durMS(pub-due[i]))
	}
	return ms, unresolved
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timerMS returns the time an obs timer accumulated between two
// snapshots, in ms.
func timerMS(after, before obs.Snapshot, name string) float64 {
	return durMS(time.Duration(after.Timers[name].TotalNS - before.Timers[name].TotalNS))
}
