// Fixture for the goleak analyzer: goroutine-launch shapes from the
// serving runtime.
package serve

import (
	"context"
	"sync"
)

// waitGroupJoin joins via a deferred Done: good.
func waitGroupJoin(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
}

// ackedSend sends its result on a channel the launcher receives: good
// (the app.Run listener shape).
func ackedSend(serve func() error) error {
	errc := make(chan error, 1)
	go func() { errc <- serve() }()
	return <-errc
}

// closeHandshakeBodyCloses closes a channel the launcher waits on: good
// (the soak test's collector shape).
func closeHandshakeBodyCloses(wg *sync.WaitGroup) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	<-done
}

// closeHandshakeLauncherCloses launches a goroutine that blocks on a
// channel the launcher closes on exit: good (the SignalContext shape).
func closeHandshakeLauncherCloses() func() {
	done := make(chan struct{})
	go func() {
		select {
		case <-done:
			return
		}
	}()
	return func() { close(done) }
}

// ctxJoin bounds the goroutine's lifetime with the request context: good.
func ctxJoin(ctx context.Context, tick chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case tick <- 1:
			}
		}
	}()
}

// fireAndForget has no join witness: flagged.
func fireAndForget() {
	go func() { // want `goroutine is not joined`
		work()
	}()
}

// daemon is an intentional process-lifetime goroutine: waived.
func daemon() {
	//trajlint:allow goleak -- fixture: process-lifetime janitor, reaped by exit
	go func() {
		for {
			work()
		}
	}()
}

// staleDaemon carries a reason-less waiver: the directive is flagged and
// the leak still reported.
func staleDaemon() {
	//trajlint:allow goleak // want `malformed trajlint directive`
	go func() { // want `goroutine is not joined`
		work()
	}()
}

// namedSpawn launches a named function: out of intraprocedural reach, not
// analyzed.
func namedSpawn() {
	go work()
}

func work() {}
