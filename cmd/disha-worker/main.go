// Command disha-worker is a fleet worker: it registers with a disha-serve
// coordinator running in -fleet mode, leases sweep points, executes them
// through the deterministic harness, and uploads results (streaming
// mid-point checkpoint blobs so a killed worker's points resume elsewhere).
//
//	disha-worker -coordinator http://host:8080/fleet
//	disha-worker -coordinator http://host:8080/fleet -parallel 4 -id rack3-07
//
// Determinism makes the fleet safe: a point's result is a pure function of
// its job key and derived seed, so it does not matter which worker runs it
// or how often the coordinator re-dispatches it — every execution produces
// identical bytes, and the worker verifies the coordinator's key and seed
// against its own derivation before running anything.
//
// On SIGINT/SIGTERM the worker drains: points already executing finish and
// upload, no new leases are taken, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/fabric"
	"repro/internal/telemetry"
)

func main() {
	var (
		coordinator = flag.String("coordinator", "", "coordinator fleet URL, e.g. http://host:8080/fleet (required)")
		id          = flag.String("id", "", "worker identity, unique within the fleet (default hostname-pid)")
		parallel    = flag.Int("parallel", 1, "points to execute concurrently")
		ckptDir     = flag.String("checkpoint-dir", "", "local directory for mid-point checkpoint files (default: per-run temp dir)")
		version     = flag.Bool("version", false, "print build metadata and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(telemetry.Build().String())
		return
	}
	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "disha-worker: -coordinator is required (e.g. http://host:8080/fleet)")
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "disha-worker: ", log.LstdFlags)
	w := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator:   *coordinator,
		ID:            *id,
		Parallel:      *parallel,
		CheckpointDir: *ckptDir,
		Logf:          logger.Printf,
	})

	// SIGINT/SIGTERM cancels the lease loops; points already executing
	// finish and upload before Run returns.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil {
		logger.Fatal(err)
	}
	logger.Printf("drained, exiting")
}
