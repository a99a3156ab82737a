// 3-D visualization (section 4 / figure 4): merge the functional data
// with the high-resolution anatomy, render a maximum-intensity
// projection ("the light areas are regions of the brain that are
// activated"), and evaluate the Responsive Workbench streaming rates —
// run through the registered "figure4-workbench" scenario, whose
// report carries the rendered head.
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, runs the scenario, prints its report to stdout and
// writes the rendered head to -out.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("workbench", flag.ContinueOnError)
	out := fs.String("out", "head.png", "output PNG path")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rep, err := gtw.Run(context.Background(), "figure4-workbench")
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep.Text())
	fmt.Fprintln(stdout, "(the paper: 'less than 8 frames/second ... over a 622 Mbit/s ATM network using classical IP')")

	f4, ok := rep.(*gtw.Figure4Report)
	if !ok {
		return fmt.Errorf("unexpected report type %T", rep)
	}
	if err := os.WriteFile(*out, f4.PNG, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "rendered activated head to %s\n", *out)
	return nil
}
