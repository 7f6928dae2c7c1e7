package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"trajpattern/internal/serve"
)

// server is one in-process trajserve started through serve.Run, wired
// as the trajserve binary wires it.
type server struct {
	base   string
	cancel context.CancelFunc
	done   chan error
}

// startServer runs serve.Run on o until stop and returns once the
// server reports ready (after WAL replay, when ingest is on), with the
// time that took.
func startServer(o serve.Options) (*server, time.Duration, error) {
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	t0 := time.Now()
	go func() { done <- serve.Run(ctx, o, func(addr string) { ready <- addr }) }()
	select {
	case addr := <-ready:
		return &server{base: "http://" + addr, cancel: cancel, done: done}, time.Since(t0), nil
	case err := <-done:
		cancel()
		return nil, 0, fmt.Errorf("serve.Run: %v", err)
	}
}

// stop drains the server and waits for Run to return.
func (s *server) stop() error {
	if s == nil {
		return nil
	}
	s.cancel()
	return <-s.done
}

// maxConns is the most client connections a workload opens at once.
const maxConns = 2

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		},
		Timeout: time.Minute,
	}
}

// call sends one request and, on 200, decodes the JSON reply into out.
// It returns the status; a transport or decode failure is an error.
func call(hc *http.Client, method, url string, body []byte, reqID string, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain so the connection is reused
	return resp.StatusCode, err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
