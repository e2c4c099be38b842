// Command volaserved serves the sweep experiments over HTTP: submit any
// sweep-family experiment as JSON, follow its progress and partial
// aggregates as an event stream (a partial at each checkpoint write that
// commits a strict prefix, so -checkpoint-every sets their cadence), and
// fetch the finished table with its digest. Results are content-addressed by config digest, so identical
// submissions are served from cache, and running jobs checkpoint to disk —
// a restarted server resumes a resubmitted sweep from where it left off and
// still lands on a bit-identical result digest.
//
// Usage:
//
//	volaserved -addr :8080 -data ./volaserved-data
//
// See EXPERIMENTS.md ("Sweep as a service") for the endpoint walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/jobs"
)

// Connection timeouts. A client gets readHeaderTimeout to send its request
// headers and a keep-alive connection may sit idle for idleTimeout, so
// clients that never finish a request cannot pin connections forever.
// There is deliberately no write timeout: /jobs/{id}/events streams for as
// long as the sweep runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the server for handler h on addr, giving clients
// headerTimeout to finish their request headers.
func newHTTPServer(addr string, h http.Handler, headerTimeout time.Duration) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: headerTimeout,
		IdleTimeout:       idleTimeout,
	}
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dataDir := flag.String("data", "volaserved-data", "directory for checkpoints and cached results")
	maxJobs := flag.Int("max-jobs", 1, "sweeps running concurrently (each sweep is itself parallel)")
	every := flag.Int("checkpoint-every", 0, "checkpoint cadence in chunks (0 = library default)")
	resultsTTL := flag.Duration("results-ttl", 0, "evict cached results older than this (0 = keep forever; eviction never touches a job with an attached stream)")
	shutdownTimeout := flag.Duration("shutdown-timeout", time.Minute, "grace period for in-flight requests on SIGINT/SIGTERM")
	flag.Parse()

	if *every < 0 {
		fmt.Fprintf(os.Stderr, "volaserved: -checkpoint-every must be >= 0 (got %d)\n", *every)
		os.Exit(2)
	}
	if *resultsTTL < 0 {
		fmt.Fprintf(os.Stderr, "volaserved: -results-ttl must be >= 0 (got %v)\n", *resultsTTL)
		os.Exit(2)
	}
	sched, err := jobs.New(jobs.Options{
		DataDir:         *dataDir,
		MaxConcurrent:   *maxJobs,
		CheckpointEvery: *every,
		ResultsTTL:      *resultsTTL,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "volaserved:", err)
		os.Exit(1)
	}

	// Boot auto-resume: jobs a previous process left unfinished (persisted
	// request, no cached result) restart from their checkpoints without
	// waiting for any client to resubmit them.
	if n, rejected, err := sched.ResumeInterrupted(); err != nil {
		fmt.Fprintln(os.Stderr, "volaserved: resume scan:", err)
	} else if n > 0 || rejected > 0 {
		fmt.Printf("volaserved: resumed %d interrupted job(s) from checkpoints, rejected %d request stub(s)\n", n, rejected)
	}

	srv := newHTTPServer(*addr, newServer(sched), readHeaderTimeout)
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("volaserved: listening on %s (data: %s)\n", *addr, *dataDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "volaserved:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("volaserved: %v — checkpointing running jobs and draining\n", s)
	}

	// Stop sweeps first so their final checkpoints are committed, then
	// drain HTTP: event streams end with the jobs, so Shutdown converges.
	sched.Stop()
	ctx, cancelCtx := context.WithTimeout(context.Background(), *shutdownTimeout)
	defer cancelCtx()
	if err := srv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "volaserved: shutdown:", err)
		os.Exit(1)
	}
	fmt.Println("volaserved: stopped; interrupted jobs resume automatically at the next boot")
}
