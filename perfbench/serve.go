package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"trajpattern/internal/cli"
	"trajpattern/internal/core"
	"trajpattern/internal/geom"
	"trajpattern/internal/grid"
	"trajpattern/internal/obs"
	"trajpattern/internal/predict"
	"trajpattern/internal/serve"
	"trajpattern/internal/stat"
	"trajpattern/internal/trace"
	"trajpattern/internal/traj"
)

const (
	scorePatterns = 32 // patterns per /v1/score request
	inputPool     = 64 // distinct score bodies and predict histories
	historyLen    = 10 // points per /v1/predict history
)

// runServe drives an in-process trajserve with two closed-loop clients,
// each alternating POST /v1/score and POST /v1/predict.
func runServe(ctx context.Context, rc runConfig) (*outcome, error) {
	o := newOutcome("client-side median of POST /v1/score, 32 patterns of length 2-5, 2 closed-loop clients")
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()

	var (
		srv   *server
		reg   *obs.Registry
		ds    traj.Dataset
		mined serve.MineResponse
		err   error
	)
	defer func() { srv.stop() }() //nolint:errcheck // teardown
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
			hc.CloseIdleConnections()
		}
		t0 := time.Now()
		if ds, err = zebraDataset(mineBox.s, mineBox.l, rc.seed); err != nil {
			return nil, err
		}
		reg = obs.New()
		if srv, _, err = startServer(serve.Options{Addr: "127.0.0.1:0", Dataset: ds, Server: serve.Config{Metrics: reg}}); err != nil {
			return nil, err
		}
		mined = serve.MineResponse{}
		st, err := call(hc, "POST", srv.base+"/v1/mine", mustJSON(serve.MineRequest{K: mineBox.k, MaxLen: mineBox.maxLen}), "", &mined)
		if err != nil || st != 200 || mined.Degraded || len(mined.Patterns) != mineBox.k {
			return nil, fmt.Errorf("set-up /v1/mine: status %d, %d patterns, degraded %v: %v", st, len(mined.Patterns), mined.Degraded, err)
		}
		o.setup = append(o.setup, time.Since(t0).Seconds())
	}

	// Seeded inputs: score bodies over the whole grid, predict histories
	// cut from dataset trajectories.
	g := cli.FitGrid(ds, 12)
	rng := stat.NewRNG(rc.seed ^ 0x5C0DE)
	scoreBodies := make([][]byte, inputPool)
	scorePats := make([][]core.Pattern, inputPool)
	predictBodies := make([][]byte, inputPool)
	histories := make([][]geom.Point, inputPool)
	for i := range scoreBodies {
		var req serve.ScoreRequest
		for j := 0; j < scorePatterns; j++ {
			p := make([]int, 2+rng.Intn(4))
			for k := range p {
				p[k] = rng.Intn(g.NumCells())
			}
			req.Patterns = append(req.Patterns, p)
			scorePats[i] = append(scorePats[i], core.Pattern(p))
		}
		scoreBodies[i] = mustJSON(req)
		tr := ds[rng.Intn(len(ds))]
		for len(tr) < historyLen {
			tr = ds[rng.Intn(len(ds))]
		}
		off := rng.Intn(len(tr) - historyLen + 1)
		var preq serve.PredictRequest
		for _, pt := range tr[off : off+historyLen] {
			histories[i] = append(histories[i], pt.Mean)
			preq.History = append(preq.History, serve.PointJSON{X: pt.Mean.X, Y: pt.Mean.Y})
		}
		predictBodies[i] = mustJSON(preq)
	}

	// Timed phase. Every reply is compared with the first reply to the
	// same input; the first replies are checked against local answers
	// afterwards.
	runtime.GC() // one phase's garbage must not count against the next one's peak
	type reply struct {
		route  string // "score", "predict", or why the request failed
		idx    int
		same   bool // equal to the first reply to the same input
		ms     float64
		traced bool
	}
	var (
		mu         sync.Mutex
		firstScore = make([][]float64, inputPool)
		firstPred  = make([]*geom.Point, inputPool)
		replies    []reply
	)
	before := reg.Snapshot()
	heap := startHeapPeak()
	start := time.Now()
	end := start.Add(rc.seconds)
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := rc.tr.Local()
			for r := c; time.Now().Before(end) && ctx.Err() == nil; r += maxConns {
				idx := r % inputPool
				traced := rc.trace && (r/maxConns)%2 == 0
				var tl *trace.Local
				var reqID string
				if traced {
					tl, reqID = l, fmt.Sprintf("bench-%d", r)
				}

				var sr serve.ScoreResponse
				sp := tl.Span("http.score", trace.Attrs{"request_id": reqID})
				t0 := time.Now()
				st, err := call(hc, "POST", srv.base+"/v1/score", scoreBodies[idx], reqID, &sr)
				rep := reply{route: "score", idx: idx, ms: sinceMS(t0), traced: traced}
				sp.End()
				nm := make([]float64, len(sr.Scores))
				for j, s := range sr.Scores {
					nm[j] = s.NM
				}
				if err != nil || st != 200 || len(nm) != scorePatterns {
					rep.route = fmt.Sprintf("score status %d (%v)", st, err)
				}

				var pr serve.PredictResponse
				sp = tl.Span("http.predict", trace.Attrs{"request_id": reqID})
				t0 = time.Now()
				st, err = call(hc, "POST", srv.base+"/v1/predict", predictBodies[idx], reqID, &pr)
				prep := reply{route: "predict", idx: idx, ms: sinceMS(t0), traced: traced}
				sp.End()
				next := geom.Pt(pr.Next.X, pr.Next.Y)
				if err != nil || st != 200 {
					prep.route = fmt.Sprintf("predict status %d (%v)", st, err)
				}

				mu.Lock()
				if rep.route == "score" {
					if firstScore[idx] == nil {
						firstScore[idx] = nm
					}
					rep.same = slices.Equal(firstScore[idx], nm)
				}
				if prep.route == "predict" {
					if firstPred[idx] == nil {
						firstPred[idx] = &next
					}
					prep.same = *firstPred[idx] == next
				}
				replies = append(replies, rep, prep)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	o.heapMB, o.heapMax = heap.Stop()
	after := reg.Snapshot()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Local answers: a Scorer.NM of every pattern, and the server's
	// predictor configuration over the installed patterns.
	local, err := core.NewScorer(ds, core.Config{Grid: g, Delta: g.CellWidth()})
	if err != nil {
		return nil, err
	}
	scoreOK := make([]bool, inputPool)
	for i, nm := range firstScore {
		scoreOK[i] = nm != nil
		for j := range nm {
			scoreOK[i] = scoreOK[i] && relClose(nm[j], local.NM(scorePats[i][j]))
		}
	}
	mk := predictorFor(mined, g, ds)
	predOK := make([]bool, inputPool)
	for i, got := range firstPred {
		if got == nil {
			continue
		}
		pp := mk()
		for _, p := range histories[i] {
			pp.Observe(p)
		}
		want := pp.Predict()
		predOK[i] = relClose(got.X, want.X) && relClose(got.Y, want.Y)
	}
	var score, pred []float64 // every request, traced or not
	for _, rep := range replies {
		switch rep.route {
		case "score":
			o.checkOutput(rep.same && scoreOK[rep.idx], "/v1/score NM differs from a local Scorer.NM")
			score = append(score, rep.ms)
			if rep.traced {
				o.tracedOp = append(o.tracedOp, rep.ms)
			} else {
				o.op = append(o.op, rep.ms)
			}
		case "predict":
			o.checkOutput(rep.same && predOK[rep.idx], "/v1/predict differs from a local PatternPredictor")
			pred = append(pred, rep.ms)
		default:
			o.ops.fail(rep.route)
		}
	}
	o.notef("score n=%d p50 %.4f ms; predict n=%d p50 %.4f ms; %.0f req/s over %d client connections",
		len(score), median(score), len(pred), median(pred), float64(len(replies))/elapsed.Seconds(), maxConns)
	if !rc.trace {
		return o, nil
	}

	n := float64(len(replies))
	hScore := histDelta(after.Histograms["serve.latency/v1/score"], before.Histograms["serve.latency/v1/score"])
	hPred := histDelta(after.Histograms["serve.latency/v1/predict"], before.Histograms["serve.latency/v1/predict"])
	handlerMS := 1000 * (hScore.Sum + hPred.Sum)
	batchMS := timerMS(after, before, "scorer.time.batch")
	o.layers["serve.score_ms_p99"] = pct(score, 0.99)
	o.layers["serve.predict_ms_p50"] = median(pred)
	o.layers["serve.predict_ms_p99"] = pct(pred, 0.99)
	o.layers["serve.req_per_s"] = n / elapsed.Seconds()
	o.layers["serve.queue_wait_ms_p50"] = 1000 * histQuantile(histDelta(after.Histograms["serve.queue.wait"], before.Histograms["serve.queue.wait"]), 0.5)
	o.layers["serve.handler_score_ms_p50"] = 1000 * histQuantile(hScore, 0.5)
	o.layers["serve.handler_predict_ms_p50"] = 1000 * histQuantile(hPred, 0.5)
	o.layers["serve.shed"] = float64(after.Counter("serve.shed") - before.Counter("serve.shed"))
	o.layers["self.http_ms"] = (sum(score) + sum(pred) - handlerMS) / n
	o.layers["self.serve_ms"] = (handlerMS - batchMS) / n
	o.layers["self.core_scorer_ms"] = batchMS / n

	l := rc.tr.Local()
	predictProbe(l, mk, histories, o.layers)
	if err := coreProbe(ctx, l, ds, core.Config{Grid: g, Delta: g.CellWidth()},
		core.MinerConfig{K: mineBox.k, MaxLen: mineBox.maxLen}, o.layers); err != nil {
		return nil, err
	}
	return o, nil
}

// predictorFor returns a constructor of the predictor trajserve builds
// for /v1/predict over the installed patterns.
func predictorFor(mined serve.MineResponse, g *grid.Grid, ds traj.Dataset) func() *predict.PatternPredictor {
	pats := make([]core.Pattern, len(mined.Patterns))
	for i, p := range mined.Patterns {
		pats[i] = core.Pattern(p.Cells)
	}
	sigma := ds.MeanSigma()
	if sigma <= 0 {
		sigma = g.CellWidth()
	}
	return func() *predict.PatternPredictor {
		return &predict.PatternPredictor{
			Base:     predict.NewLinear(),
			Patterns: pats,
			Mode:     predict.LocationPatterns,
			Grid:     g,
			Delta:    g.CellWidth(),
			Sigma:    sigma,
		}
	}
}
