package serve

import (
	"context"
	"errors"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

// ListenAndServe is the serving shell cmd/hsdserve and cmd/hsdrouter
// share: serve h on addr until SIGINT, SIGTERM or the end of ctx, then
// stop accepting connections, give inflight requests up to shutdown to
// finish, and call closeFn (which releases whatever h serves from). A
// listener that fails outright is fatal. name prefixes the log lines.
func ListenAndServe(ctx context.Context, name, addr string, h http.Handler, shutdown time.Duration, closeFn func()) {
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		// Generous body/response windows: factor payloads can be large
		// and jobs queue behind the admission bound, but no connection
		// may sit on a goroutine forever.
		ReadTimeout:  5 * time.Minute,
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	sig, stop := signal.NotifyContext(ctx, syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		closeFn()
		log.Fatalf("%s: %v", name, err)
	case <-sig.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("%s: signal received, draining inflight requests (up to %s)", name, shutdown)
	// The drain window outlives the signal that opened it.
	sctx, cancel := context.WithTimeout(context.WithoutCancel(sig), shutdown)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		log.Printf("%s: shutdown: %v", name, err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("%s: serve: %v", name, err)
	}
	closeFn()
}
