// Command perfbench is the repository benchmark: it runs one named
// workload of TrajPattern's own code paths (batch mining in box and disk
// mode, the trajserve read path, and WAL-backed streaming ingest with
// re-mining) for a fixed time, checks every answer, and prints one JSON
// result line. With -trace 1 it instead prints per-layer numbers taken
// from outside the program: spans the benchmark records around calls
// into each module's public functions, plus the program's own obs
// counters and histograms.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload mine --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/obs"
	"trajpattern/internal/trace"
)

// setupReps is how many times each workload sets up; setup_s is the
// median, and the last set-up is the one measured.
const setupReps = 5

// runConfig is what every workload receives.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string // scratch directory inside the checkout
	// tr records the benchmark's spans around calls into the program, in
	// memory; it is nil, and its locals no-ops, in an untraced run.
	tr *trace.Tracer
}

// outcome is what a workload reports back.
type outcome struct {
	opName   string    // the workload's own name for op_ms_p50
	setup    []float64 // seconds, one per set-up
	op       []float64 // ms per timed operation (untraced ones in a traced run)
	tracedOp []float64 // ms per traced operation (traced runs only)
	heapMB   float64   // median one-second peak of the Go heap
	heapMax  float64   // overall peak
	ops      tally     // every timed operation, failed if refused or wrong
	wrong    int       // operations that failed an output check
	layers   map[string]float64
	notes    []string
}

func newOutcome(opName string) *outcome {
	return &outcome{opName: opName, layers: map[string]float64{}}
}

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// checkOutput counts one output check; a failed check is a wrong answer.
func (o *outcome) checkOutput(cond bool, reason string) {
	if !cond {
		o.wrong++
	}
	o.ops.check(cond, reason)
}

type workloadFunc func(ctx context.Context, rc runConfig) (*outcome, error)

var workloads = map[string]workloadFunc{
	"mine":      func(ctx context.Context, rc runConfig) (*outcome, error) { return runMine(ctx, rc, mineBox) },
	"mine_disk": func(ctx context.Context, rc runConfig) (*outcome, error) { return runMine(ctx, rc, mineDisk) },
	"serve":     runServe,
	"ingest":    runIngest,
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload bypasses reads 0.
var perLayer = []metricDef{
	{"op.samples", "count"},
	{"trace.op_ms_p50", "ms"},
	{"trace.overhead_ms", "ms"},
	{"stat.box_ns", "ns"},
	{"stat.disk_ns", "ns"},
	{"stat.calls", "count"},
	{"core.prepare_ms", "ms"},
	{"core.cells_built", "count"},
	{"core.nm_us", "us"},
	{"core.nm_allocs", "count"},
	{"core.nm_evals", "count"},
	{"core.batch_ms", "ms"},
	{"core.cache_hit_frac", "ratio"},
	{"core.iterations", "count"},
	{"core.candidates", "count"},
	{"core.pruned_frac", "ratio"},
	{"core.iter_ms_p50", "ms"},
	{"core.miner_self_ms", "ms"},
	{"serve.score_ms_p99", "ms"},
	{"serve.predict_ms_p50", "ms"},
	{"serve.predict_ms_p99", "ms"},
	{"serve.req_per_s", "1/s"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.handler_score_ms_p50", "ms"},
	{"serve.handler_predict_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"predict.us", "us"},
	{"ingest.ack_ms_p50", "ms"},
	{"ingest.ack_ms_p99", "ms"},
	{"ingest.commit_ms_p50", "ms"},
	{"ingest.fsync_ms_p50", "ms"},
	{"ingest.batch_records", "count"},
	{"ingest.shed", "count"},
	{"ingest.replay_ms", "ms"},
	{"serve.generation_ms_p50", "ms"},
	{"serve.generations", "count"},
	{"serve.generation_nm_evals", "count"},
	{"serve.remine_build_ms", "ms"},
	{"serve.remine_mine_ms", "ms"},
	{"traj.sync_ms", "ms"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.rate", "1/s"},
	{"self.bench_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.serve_ms", "ms"},
	{"self.ingest_ms", "ms"},
	{"self.core_prepare_ms", "ms"},
	{"self.core_miner_ms", "ms"},
	{"self.core_scorer_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run: mine, mine_disk, serve or ingest")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 20, "length of the timed phase in seconds")
		traced   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		out      = flag.String("out", ".bench_build", "scratch directory for WAL segments and trace journals")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (mine|mine_disk|serve|ingest), --seconds > 0 and --trace 0|1\n")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traced == 1,
		out:     *out,
	}
	if rc.trace {
		rc.tr = trace.New()
	}
	o, err := fn(ctx, rc)
	if err == nil && len(o.op) == 0 {
		err = fmt.Errorf("no timed operation succeeded (%d attempted)", o.ops.attempted)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if rc.trace {
		path := filepath.Join(*out, "trace-"+*workload+".jsonl")
		if err := cli.SaveTrace(path, rc.tr); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: save trace: %v\n", err)
			return 1
		}
		o.notef("trace journal: %s (+ .json Chrome export)", path)
	}
	res := report(*workload, rc, o)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// report prints the human-readable summary and builds the result line.
func report(workload string, rc runConfig, o *outcome) result {
	prov, _ := json.Marshal(obs.CollectProvenance())
	fmt.Printf("workload %s seed %d seconds %.0f trace %v\n", workload, rc.seed, rc.seconds.Seconds(), rc.trace)
	fmt.Printf("provenance %s\n", prov)
	op := summarize(o.op)
	e2e := map[string]float64{
		"setup_s":      median(o.setup),
		"op_ms_p50":    op.P50,
		"peak_heap_mb": o.heapMB,
	}
	fmt.Printf("  %-22s %12.4f s    (median of %d set-ups: %s)\n", "setup_s", e2e["setup_s"], len(o.setup), fmtList(o.setup, "%.3f"))
	fmt.Printf("  %-22s %12.4f ms   (op_ms_p50 = %s; n=%d", "op_ms_p50", op.P50, o.opName, op.N)
	if op.TailP > 0 {
		fmt.Printf("; p%g %.4f ms", op.TailP, op.Tail)
	}
	fmt.Printf(")\n")
	if len(o.op) <= 100 {
		fmt.Printf("  %-22s %s\n", "op samples (ms)", fmtList(o.op, "%.1f"))
	}
	fmt.Printf("  %-22s %12.4f MB   (median of the timed phase's 1 s peaks of the Go heap; overall peak %.4f MB)\n", "peak_heap_mb", o.heapMB, o.heapMax)
	fmt.Printf("  %-22s %12.6f      (%d failed of %d attempted)\n", "failed_frac", o.ops.frac(), o.ops.failed, o.ops.attempted)
	reasons := make([]string, 0, len(o.ops.reasons))
	for r, n := range o.ops.reasons {
		reasons = append(reasons, fmt.Sprintf("%s ×%d", r, n))
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("  FAILED: %s\n", r)
	}
	for _, n := range o.notes {
		fmt.Printf("  note: %s\n", n)
	}
	res := result{
		Correct:   o.wrong == 0 && o.ops.attempted > 0,
		Attempted: o.ops.attempted,
		Failed:    o.ops.failed,
		Metrics:   map[string]metricValue{},
	}
	if !rc.trace {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: finite(e2e[m.name]), Unit: m.unit}
		}
		return res
	}
	o.layers["op.samples"] = float64(len(o.op) + len(o.tracedOp))
	o.layers["trace.op_ms_p50"] = median(o.tracedOp)
	o.layers["trace.overhead_ms"] = median(o.tracedOp) - op.P50
	fmt.Printf("per-layer (traced run; self.* are ms of exclusive time per operation):\n")
	for _, m := range perLayer {
		v := finite(o.layers[m.name])
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		fmt.Printf("  %-30s %14.4f %s\n", m.name, v, m.unit)
	}
	return res
}

func fmtList(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// heapPeak samples the Go heap (live and not yet swept objects) every
// few milliseconds until stopped. It keeps the peak of every one-second
// window: one window's peak is an extreme of a GC sawtooth, so the
// metric is the median window peak, and the overall maximum is kept
// alongside for the summary.
type heapPeak struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64 // MB, one per window
}

const (
	heapMetric = "/memory/classes/heap/objects:bytes"
	heapWindow = time.Second
)

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: heapMetric}}
	var peak uint64
	windowEnd := time.Now().Add(heapWindow)
	read := func() {
		metrics.Read(sample)
		peak = max(peak, sample[0].Value.Uint64())
		if time.Now().After(windowEnd) {
			h.peaks = append(h.peaks, float64(peak)/(1<<20))
			peak, windowEnd = 0, windowEnd.Add(heapWindow)
		}
	}
	read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				read()
				if len(h.peaks) == 0 { // a phase shorter than one window
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the median window peak and the
// overall peak, in MB.
func (h *heapPeak) Stop() (medianPeak, maxPeak float64) {
	close(h.stop)
	<-h.done
	return median(h.peaks), quantile(h.peaks, 1)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sinceMS(t time.Time) float64 { return durMS(time.Since(t)) }

// relClose reports whether a and b agree within 1e-9 relative (or
// absolute, near zero).
func relClose(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
