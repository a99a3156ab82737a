// Command firesim runs a complete realtime-fMRI session through the
// "fire-rt-session" scenario: a synthetic scanner (two activation
// sites, drift, mid-session head motion) streams volumes to an
// RT-server over real loopback TCP, the RT-client pulls, motion-corrects
// and correlates them, and the final overlay is written as a PNG — the
// figure-3 display. The measurement configuration is fixed by the
// scenario; the former -noise and -clip knobs are gone.
//
// Usage:
//
//	firesim [-scans 48] [-out overlay.png]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	gtw "repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("firesim: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the session, prints its report to stdout and
// writes the overlay to -out.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("firesim", flag.ContinueOnError)
	scans := fs.Int("scans", 48, "number of scans in the measurement")
	out := fs.String("out", "overlay.png", "output PNG path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := gtw.Run(context.Background(), "fire-rt-session", gtw.WithFrames(*scans))
	if err != nil {
		return err
	}
	sess, ok := rep.(*gtw.RTSessionReport)
	if !ok {
		return fmt.Errorf("unexpected report type %T", rep)
	}
	fmt.Fprint(stdout, sess.Text())
	if err := os.WriteFile(*out, sess.PNG, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "session complete: %d scans analysed, overlay written to %s\n", sess.Scans, *out)
	return nil
}
