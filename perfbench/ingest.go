package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/ingest"
	"trajpattern/internal/obs"
	"trajpattern/internal/serve"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

const (
	ingestRate   = 200 // reports per second, open loop
	ingestWindow = 64  // per-object window (trajserve -ingest-window)
	// warmupLen is the warm-up history per bus: four windows, so replay
	// evicts as well as fills.
	warmupLen = 4 * ingestWindow
	// ingestSetupReps: one set-up is ~0.1 s, so it repeats more often
	// than the other workloads' to hold its median steady.
	ingestSetupReps = 15
	pollEvery       = 10 * time.Millisecond
	// lateLimit is how far behind schedule a send may start before the
	// report counts as failed: the generator, not the server, set its
	// timing.
	lateLimit = 250 * time.Millisecond
	// quietSpan is how long the re-mining loop must stay idle after the
	// last report before its generation counts as final.
	quietSpan = 100 * time.Millisecond
	// quiesceTimeout bounds the wait for the final generation.
	quiesceTimeout = time.Minute
)

// The re-mining loop's snapshot schedule and top-k, as trajserve runs
// it (serve.Config leaves them at their defaults; the binary has no
// flags for them).
var remineSync = struct {
	interval float64
	count    int
	u, c     float64
}{1, 16, 1, 2}

// statusBody is the part of GET /v1/ingest/status the benchmark reads.
type statusBody struct {
	Generation int                   `json:"generation"`
	Mining     bool                  `json:"mining"`
	Windows    []ingest.ObjectWindow `json:"windows"` // ?verbose=1 only
}

// sent is one timed report as the generator saw it.
type sent struct {
	due, ack time.Duration // since the start of the timed phase
	late     time.Duration // send start − due
	clientMS float64       // send → decoded reply
	status   int
	err      error
}

// runIngest posts bus reports open-loop over one connection while a
// second connection polls the re-mining generation, and measures the
// freshness of what the server publishes.
func runIngest(ctx context.Context, rc runConfig) (*outcome, error) {
	o := newOutcome(fmt.Sprintf("median freshness: scheduled send -> publish of the first re-mine generation that includes the report (%d reports/s, open loop)", ingestRate))
	streams, err := busStreams(rc.seed)
	if err != nil {
		return nil, err
	}
	base := make(traj.Dataset, len(streams))
	for i, s := range streams {
		for n := 0; n < remineSync.count; n++ {
			p := s.at(n)
			base[i] = append(base[i], traj.P(p.X, p.Y, remineSync.u/remineSync.c))
		}
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	var (
		srv    *server
		reg    *obs.Registry
		dir    string
		replay time.Duration
		acked  [][]ingest.Record
	)
	defer func() {
		srv.stop() //nolint:errcheck // teardown
		os.RemoveAll(dir)
	}()
	for i := 0; i < ingestSetupReps; i++ {
		if i > 0 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			srv = nil
			hc.CloseIdleConnections()
			os.RemoveAll(dir)
		}
		t0 := time.Now()
		dir = filepath.Join(rc.out, fmt.Sprintf("ingest-wal-%d", i))
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if acked, err = writeHistory(dir, streams); err != nil {
			return nil, fmt.Errorf("warm-up history: %w", err)
		}
		reg = obs.New()
		srv, replay, err = startServer(serve.Options{Addr: "127.0.0.1:0", Dataset: base, Server: serve.Config{
			IngestWALDir: dir,
			IngestWindow: ingestWindow,
			Metrics:      reg,
		}})
		if err != nil {
			return nil, err
		}
		for deadline := time.Now().Add(quiesceTimeout); ; {
			var st statusBody
			if code, err := call(hc, "GET", srv.base+"/v1/ingest/status", nil, "", &st); err != nil || code != 200 {
				return nil, fmt.Errorf("status: %d %v", code, err)
			}
			if st.Generation >= 1 {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("no generation published after replay")
			}
			time.Sleep(time.Millisecond)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	// Timed phase: one sender connection, one poller connection.
	runtime.GC() // one phase's garbage must not count against the next one's peak
	interval := time.Second / ingestRate
	total := int(rc.seconds / interval)
	reports := make([]sent, 0, total)
	var (
		pollMu  sync.Mutex
		polls   []statusPoll
		pollErr error
	)
	before := reg.Snapshot()
	heap := startHeapPeak()
	start := time.Now()
	stopPoll := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			var st statusBody
			code, err := call(hc, "GET", srv.base+"/v1/ingest/status", nil, "", &st)
			at := time.Since(start)
			pollMu.Lock()
			if err != nil || code != 200 {
				pollErr = fmt.Errorf("status poll: %d %v", code, err)
			} else {
				polls = append(polls, statusPoll{At: at, Gen: st.Generation, Mining: st.Mining})
			}
			pollMu.Unlock()
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
		}
	}()
	defer func() {
		select {
		case <-stopPoll:
		default:
			close(stopPoll)
		}
		<-pollDone
	}()

	l := rc.tr.Local()
	next := make([]int, len(streams))
	for b := range next {
		next[b] = len(acked[b])
	}
	for i := 0; i < total && ctx.Err() == nil; i++ {
		due := time.Duration(i) * interval
		if d := time.Until(start.Add(due)); d > 0 {
			time.Sleep(d)
		}
		b := i % len(streams)
		n := next[b]
		next[b]++
		p := streams[b].at(n)
		var tl *trace.Local
		if rc.trace && i%2 == 0 {
			tl = l
		}
		sendAt := time.Now()
		sp := tl.Span("http.ingest", trace.Attrs{"i": i})
		var resp serve.IngestResponse
		code, err := call(hc, "POST", srv.base+"/v1/ingest", mustJSON(serve.IngestRequest{Obj: streams[b].obj, Time: float64(n), X: p.X, Y: p.Y}), "", &resp)
		sp.End()
		ackAt := time.Now()
		r := sent{due: due, ack: ackAt.Sub(start), late: sendAt.Sub(start.Add(due)), clientMS: durMS(ackAt.Sub(sendAt)), status: code, err: err}
		if err == nil && code == 200 && resp.Durable {
			acked[b] = append(acked[b], ingest.Record{Obj: streams[b].obj, Time: float64(n), X: p.X, Y: p.Y})
		}
		reports = append(reports, r)
	}
	sendEnd := time.Since(start)
	o.heapMB, o.heapMax = heap.Stop()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Wait for the re-mining loop to go quiet after the last report: its
	// final generation then mined the final windows.
	var lastAck time.Duration
	for _, r := range reports {
		lastAck = max(lastAck, r.ack)
	}
	var final int
	for deadline := time.Now().Add(quiesceTimeout); ; time.Sleep(pollEvery) {
		pollMu.Lock()
		g, ok := quiescentGeneration(polls, lastAck, quietSpan)
		err := pollErr
		pollMu.Unlock()
		if err != nil {
			return nil, err
		}
		if ok {
			final = g
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("re-mining did not go quiet within %v", quiesceTimeout)
		}
	}
	close(stopPoll)
	<-pollDone
	after := reg.Snapshot()

	// Freshness, split by whether the report's request was traced.
	var dues, acks [2][]time.Duration
	var lates, ackMS, clientMS []float64
	for i, r := range reports {
		lates = append(lates, durMS(r.late))
		switch {
		case r.err != nil || r.status != 200:
			o.ops.fail(fmt.Sprintf("ingest status %d (%v)", r.status, r.err))
			continue
		case r.late > lateLimit:
			o.ops.fail(fmt.Sprintf("generator behind: sent more than %v after due", lateLimit))
			continue
		}
		k := 0
		if rc.trace && i%2 == 0 {
			k = 1
		}
		dues[k] = append(dues[k], r.due)
		acks[k] = append(acks[k], r.ack)
		ackMS = append(ackMS, durMS(r.ack-r.due))
		clientMS = append(clientMS, r.clientMS)
	}
	var unresolved [2]int
	o.op, unresolved[0] = freshness(dues[0], acks[0], polls, final)
	o.tracedOp, unresolved[1] = freshness(dues[1], acks[1], polls, final)
	for i := 0; i < len(o.op)+len(o.tracedOp); i++ {
		o.ops.ok()
	}
	for i := 0; i < unresolved[0]+unresolved[1]; i++ {
		o.ops.fail("freshness unresolved: no published generation seen to include the report")
	}
	rate := float64(len(reports)) / sendEnd.Seconds()
	if rate < 0.9*ingestRate {
		o.ops.fail(fmt.Sprintf("generator rate %.1f/s below 90%% of %d/s", rate, ingestRate))
	}
	o.notef("generator: %d reports at %.1f/s (target %d/s), late p50 %.3f ms, max %.3f ms", len(reports), rate, ingestRate, median(lates), quantile(lates, 1))

	// Output checks: the final windows hold exactly the newest acked
	// reports of each bus, and the final generation equals a from-scratch
	// mine of those windows.
	var st statusBody
	if code, err := call(hc, "GET", srv.base+"/v1/ingest/status?verbose=1", nil, "", &st); err != nil || code != 200 {
		return nil, fmt.Errorf("verbose status: %d %v", code, err)
	}
	windows := map[string][]ingest.Record{}
	for _, w := range st.Windows {
		windows[w.Obj] = w.Records
	}
	for b, s := range streams {
		want := acked[b]
		if len(want) > ingestWindow {
			want = want[len(want)-ingestWindow:]
		}
		got := windows[s.obj]
		ok := len(got) == len(want)
		for j := 0; ok && j < len(got); j++ {
			ok = got[j].Time == want[j].Time && got[j].X == want[j].X && got[j].Y == want[j].Y
		}
		o.checkOutput(ok, "final window is not the newest acknowledged reports")
	}
	var mined serve.MineResponse
	if code, err := call(hc, "POST", srv.base+"/v1/mine", mustJSON(serve.MineRequest{K: serve.DefaultIngestMineK}), "", &mined); err != nil || code != 200 {
		return nil, fmt.Errorf("final /v1/mine: %d %v", code, err)
	}
	ts := time.Now()
	ds, err := windowsDataset(st.Windows)
	if err != nil {
		return nil, err
	}
	syncMS := sinceMS(ts)
	tb := time.Now()
	g := cli.FitGrid(ds, 12)
	scfg := core.Config{Grid: g, Delta: g.CellWidth()}
	s, err := core.NewScorer(ds, scfg)
	if err != nil {
		return nil, err
	}
	s.Prepare(s.ObservedCells(1))
	buildMS := sinceMS(tb)
	tm := time.Now()
	mcfg := core.MinerConfig{K: serve.DefaultIngestMineK, MaxWallTime: serve.DefaultDeadline * 8 / 10}
	res, err := core.Mine(ctx, s, mcfg)
	if err != nil {
		return nil, err
	}
	mineMS := sinceMS(tm)
	same := !mined.Degraded && len(mined.Patterns) == len(res.Patterns)
	for j := 0; same && j < len(res.Patterns); j++ {
		same = core.Pattern(mined.Patterns[j].Cells).Key() == res.Patterns[j].Pattern.Key() &&
			relClose(mined.Patterns[j].NM, res.Patterns[j].NM)
	}
	o.checkOutput(same, "final generation differs from a from-scratch core.Mine of its windows")
	o.checkOutput(mined.Generation == final, "/v1/mine served another generation than the quiescent one")
	o.notef("final generation %d over %d objects; top-%d %s", final, len(ds), len(res.Patterns), topK(res.Patterns))

	if !rc.trace {
		return o, nil
	}
	n := float64(len(reports))
	gens := float64(after.Counter("serve.ingest.generations") - before.Counter("serve.ingest.generations"))
	hIngest := histDelta(after.Histograms["serve.latency/v1/ingest"], before.Histograms["serve.latency/v1/ingest"])
	hCommit := histDelta(after.Histograms["ingest.commit"], before.Histograms["ingest.commit"])
	batchMS := timerMS(after, before, "scorer.time.batch")
	minerMS := timerMS(after, before, "miner.time.total")
	var genIntervals []float64
	for i := 1; i < len(polls); i++ {
		if polls[i].Gen > polls[i-1].Gen && polls[i].At <= sendEnd {
			if prev, ok := publishedAt(polls, polls[i-1].Gen); ok && polls[i-1].Gen > 0 {
				genIntervals = append(genIntervals, durMS(polls[i].At-prev)/float64(polls[i].Gen-polls[i-1].Gen))
			}
		}
	}
	o.layers["ingest.ack_ms_p50"] = median(ackMS)
	o.layers["ingest.ack_ms_p99"] = pct(ackMS, 0.99)
	o.layers["ingest.commit_ms_p50"] = 1000 * histQuantile(hCommit, 0.5)
	o.layers["ingest.fsync_ms_p50"] = 1000 * histQuantile(histDelta(after.Histograms["ingest.wal.fsync"], before.Histograms["ingest.wal.fsync"]), 0.5)
	o.layers["ingest.batch_records"] = float64(after.Counter("ingest.accepted")-before.Counter("ingest.accepted")) /
		float64(after.Counter("ingest.batches")-before.Counter("ingest.batches"))
	o.layers["ingest.shed"] = float64(after.Counter("serve.shed") - before.Counter("serve.shed"))
	o.layers["ingest.replay_ms"] = durMS(replay)
	o.layers["serve.generation_ms_p50"] = median(genIntervals)
	o.layers["serve.generations"] = gens
	o.layers["serve.generation_nm_evals"] = float64(after.Counter("scorer.nm.evals")-before.Counter("scorer.nm.evals")) / gens
	o.layers["serve.remine_build_ms"] = buildMS
	o.layers["serve.remine_mine_ms"] = mineMS
	o.layers["traj.sync_ms"] = syncMS
	o.layers["loadgen.late_ms_p99"] = pct(lates, 0.99)
	o.layers["loadgen.rate"] = rate
	o.layers["self.http_ms"] = (sum(clientMS) - 1000*hIngest.Sum) / n
	o.layers["self.serve_ms"] = 1000 * (hIngest.Sum - hCommit.Sum) / n
	o.layers["self.ingest_ms"] = 1000 * hCommit.Sum / n
	o.layers["self.core_miner_ms"] = (minerMS - batchMS) / n
	o.layers["self.core_scorer_ms"] = batchMS / n
	if err := coreProbe(ctx, l, ds, scfg, mcfg, o.layers); err != nil {
		return nil, err
	}
	return o, nil
}

// writeHistory appends the warm-up history to a fresh WAL in dir, one
// report per bus per time step, as a single group commit, and closes the
// log; it returns the records per bus. Every bus overfills its window,
// so the replay that follows evicts as well as fills.
func writeHistory(dir string, streams []busStream) ([][]ingest.Record, error) {
	wal, replayed, err := ingest.OpenWAL(ingest.WALConfig{Dir: dir})
	if err != nil {
		return nil, err
	}
	if len(replayed) > 0 {
		wal.Close() //nolint:errcheck // refusing a non-empty log
		return nil, fmt.Errorf("WAL in %s is not empty", dir)
	}
	acked := make([][]ingest.Record, len(streams))
	recs := make([]ingest.Record, 0, warmupLen*len(streams))
	for n := 0; n < warmupLen; n++ {
		for b, s := range streams {
			p := s.at(n)
			r := ingest.Record{Obj: s.obj, Time: float64(n), X: p.X, Y: p.Y}
			recs = append(recs, r)
			acked[b] = append(acked[b], r)
		}
	}
	if err := wal.Append(recs); err != nil {
		wal.Close() //nolint:errcheck // already failing
		return nil, err
	}
	if err := wal.Sync(); err != nil {
		wal.Close() //nolint:errcheck // already failing
		return nil, err
	}
	return acked, wal.Close()
}

// windowsDataset synchronizes a window snapshot onto the re-mining
// loop's snapshot schedule, anchored on the newest report, exactly as
// the server does before each generation.
func windowsDataset(ws []ingest.ObjectWindow) (traj.Dataset, error) {
	end, any := 0.0, false
	for _, w := range ws {
		if n := len(w.Records); n > 0 && (!any || w.Records[n-1].Time > end) {
			end, any = w.Records[n-1].Time, true
		}
	}
	if !any {
		return nil, fmt.Errorf("empty windows")
	}
	cfg := traj.SyncConfig{
		Start:    end - remineSync.interval*float64(remineSync.count-1),
		Interval: remineSync.interval,
		Count:    remineSync.count,
		U:        remineSync.u,
		C:        remineSync.c,
	}
	var ds traj.Dataset
	for _, w := range ws {
		if len(w.Records) == 0 {
			continue
		}
		reports := make([]traj.Report, len(w.Records))
		for i, r := range w.Records {
			reports[i] = traj.Report{Time: r.Time, Loc: geom.Pt(r.X, r.Y)}
		}
		tr, err := traj.Synchronize(reports, cfg)
		if err != nil {
			return nil, err
		}
		ds = append(ds, tr)
	}
	return ds, nil
}
