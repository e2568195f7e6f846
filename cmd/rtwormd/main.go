// Command rtwormd is the online admission-control daemon: it keeps a
// live stream set for one wormhole network and answers admit/withdraw
// requests over a JSON HTTP API, re-running the paper's feasibility
// test incrementally on every mutation (internal/admit). State
// survives restarts through a JSON snapshot file: a document followed
// by one fdatasync'd record per commit (docs/DAEMON.md, Persistence).
//
// Usage:
//
//	rtwormd -addr :8080 -topo '{"kind":"mesh2d","w":10,"h":10}' \
//	        -snapshot /var/lib/rtwormd/state.json
//
// When the snapshot file exists at boot, the topology inside it wins
// and -topo is ignored; otherwise the flag is required. SIGINT/SIGTERM
// trigger a graceful shutdown that drains in-flight requests for up to
// -drain. See docs/DAEMON.md for the API reference.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/admit"
	"repro/internal/server"
	"repro/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "rtwormd:", err)
		os.Exit(1)
	}
}

// run is main minus os.Exit, so tests can drive the whole boot path.
func run(argv []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtwormd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	topoJSON := fs.String("topo", "", `topology spec JSON, e.g. {"kind":"mesh2d","w":10,"h":10}`)
	snapshot := fs.String("snapshot", "", "snapshot file for persistence and restore-on-boot (empty: in-memory only)")
	workers := fs.Int("workers", 0, "recompute worker goroutines (0: GOMAXPROCS)")
	routerLatency := fs.Int("router-latency", 0, "per-hop router latency added to each stream's network latency")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout (0: unlimited)")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout for keep-alive connections (0: unlimited)")
	mutQueue := fs.Int("mutation-queue", 256, "bounded mutation queue depth; extra mutations shed with 429 (0: unbounded)")
	queueWait := fs.Duration("queue-wait", time.Second, "longest a mutation waits for a queue slot before 429")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429, rounded up to whole seconds")
	if err := fs.Parse(argv); err != nil {
		return err
	}

	cfg := admit.Config{Workers: *workers, RouterLatency: *routerLatency}
	var ctl *admit.Controller
	if *snapshot != "" {
		restored, ok, err := server.LoadSnapshot(*snapshot, cfg)
		if err != nil {
			return err
		}
		if ok {
			ctl = restored
			fmt.Fprintf(out, "restored %d streams from %s\n", ctl.Len(), *snapshot)
		}
	}
	if ctl == nil {
		if *topoJSON == "" {
			return fmt.Errorf("no snapshot to restore; -topo is required")
		}
		var ts stream.TopologySpec
		if err := json.Unmarshal([]byte(*topoJSON), &ts); err != nil {
			return fmt.Errorf("-topo: %w", err)
		}
		topo, err := ts.Build()
		if err != nil {
			return fmt.Errorf("-topo: %w", err)
		}
		ctl, err = admit.New(topo, cfg)
		if err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Controller:         ctl,
		SnapshotPath:       *snapshot,
		MaxQueuedMutations: *mutQueue,
		QueueWait:          *queueWait,
		RetryAfter:         *retryAfter,
		WriteTimeout:       *writeTimeout,
		IdleTimeout:        *idleTimeout,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "rtwormd listening on %s (%d streams admitted)\n", ln.Addr(), ctl.Len())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Println("shutting down, draining in-flight requests")
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}
