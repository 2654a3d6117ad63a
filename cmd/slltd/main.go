// Command slltd is the synthesis daemon: an HTTP/JSON service that accepts
// LEF/DEF/Liberty payloads, runs the hierarchical CTS flow on them through a
// bounded job queue, and serves the post-CTS DEF, the versioned run report
// and a streaming NDJSON progress feed per job.
//
// Usage:
//
//	slltd [-addr :8651] [-queue 8] [-runners 1] [-workers N]
//	      [-cache] [-cachedir DIR] [-drain 30s]
//
// Admission control: at most -queue jobs wait for a runner; submissions
// beyond that are shed with 429 and a Retry-After header rather than
// buffered without bound. -runners jobs execute concurrently, each with a
// max(1, workers/runners) goroutine budget for its per-cluster builds.
//
// -cache / -cachedir attach the run cache shared by all jobs: a job that
// repeats a completed one (same design, same options) replays its stored
// result instead of recomputing it, with byte-identical output. Nothing
// deduplicates jobs in flight, so concurrent identical jobs each compute.
//
// On SIGTERM/SIGINT the daemon drains: new submissions get 503, running and
// queued jobs finish (up to -drain), then everything still unfinished is
// cancelled and the process exits. See the API summary in internal/server.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"sllt/internal/cache"
	"sllt/internal/server"
)

func main() {
	addr := flag.String("addr", ":8651", "listen address")
	queue := flag.Int("queue", 8, "max queued jobs before submissions shed with 429")
	runners := flag.Int("runners", 1, "concurrent job executors")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "global worker-goroutine budget, split across runners")
	useCache := flag.Bool("cache", false, "share an in-memory run cache across jobs")
	cacheDir := flag.String("cachedir", "", "on-disk cache tier directory (implies -cache)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight jobs")
	flag.Parse()

	cfg := server.Config{QueueDepth: *queue, Runners: *runners, Workers: *workers}
	if *useCache || *cacheDir != "" {
		store, err := cache.New(cache.Config{Dir: *cacheDir})
		fatal(err)
		cfg.Cache = store
	}
	s := server.New(cfg)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	fmt.Printf("slltd: listening on %s (queue %d, runners %d, workers %d)\n",
		*addr, *queue, *runners, *workers)

	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "slltd: %v — draining (budget %s)\n", sig, *drain)
		dctx, dcancel := context.WithTimeout(context.Background(), *drain)
		if err := s.Drain(dctx); err != nil {
			fmt.Fprintf(os.Stderr, "slltd: drain incomplete: %v — cancelling remaining jobs\n", err)
		}
		dcancel()
		s.Close()
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := httpSrv.Shutdown(hctx); err != nil {
			fmt.Fprintf(os.Stderr, "slltd: shutdown: %v\n", err)
		}
		hcancel()
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "slltd:", err)
		os.Exit(1)
	}
}
