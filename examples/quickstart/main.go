// Quickstart: the unified scenario API. List the registry, run one
// scenario with functional options, run several concurrently, and use
// the testbed facade directly for the section-2 headline throughput
// and co-allocation.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	gtw "repro"
)

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run walks the API and prints what each step produced to stdout.
func run(stdout io.Writer) error {
	ctx := context.Background()

	// The registry: every experiment is a named scenario.
	fmt.Fprintln(stdout, "registered scenarios:")
	for _, s := range gtw.Scenarios() {
		fmt.Fprintf(stdout, "  %-24s %s\n", s.Name(), s.Description())
	}

	// Run one scenario with functional options.
	rep, err := gtw.Run(ctx, "figure2-endtoend", gtw.WithPEs(256), gtw.WithFrames(30))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep.Text())

	// Run several concurrently, each on a fresh testbed.
	names := []string{"figure1-throughput", "figure4-workbench", "future-work"}
	results, err := gtw.RunAll(ctx, names)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	for _, r := range results {
		fmt.Fprintf(stdout, "run %-24s finished in %8s (err=%v)\n",
			r.Name, r.Elapsed.Round(time.Millisecond), r.Err)
	}

	// The testbed facade remains directly usable.
	tb := gtw.NewTestbed(gtw.Config{})
	local, err := tb.TCPTransfer(gtw.HostT3E600, gtw.HostT3E1200, 64<<20, gtw.TCPConfig{WindowBytes: 4 << 20})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlocal Cray complex (HiPPI, 64K MTU): %.1f Mbit/s (paper: >430)\n",
		local.ThroughputBps/1e6)
	if err := tb.Reserve("fmri-demo", gtw.HostT3E600, gtw.HostOnyx2, gtw.HostWSJuelich); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "co-allocated T3E + Onyx2 + workstation for session fmri-demo")
	tb.Release("fmri-demo")
	return nil
}
