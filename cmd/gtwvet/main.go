// Command gtwvet is the repository's multichecker: it loads the module
// through the go toolchain and runs the four invariant analyzers —
// pointdeps, determinism, poolrelease, reach (see internal/analysis) —
// over every main-module package.
//
// Usage:
//
//	gtwvet [flags] [packages]
//
//	gtwvet ./...                 check the whole module (the CI gate)
//	gtwvet -list                 print the analyzers and exit
//	gtwvet -pointdeps-report     print the declared-vs-derived PointDeps
//	                             audit for every registration as JSON
//	gtwvet -run pointdeps ./...  run a subset (comma-separated names)
//
// Exit status is 1 when any diagnostic survives suppression, 2 on a
// load or internal error. False positives are suppressed at the site
// with a mandatory reason:
//
//	//gtwvet:ignore <analyzer> <reason>
//
// on the flagged line or the line above it; unused or reason-less
// directives are themselves diagnosed, so suppressions cannot rot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/determinism"
	"repro/internal/analysis/pointdeps"
	"repro/internal/analysis/poolrelease"
	"repro/internal/analysis/reach"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gtwvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list      = fs.Bool("list", false, "print the analyzers and exit")
		only      = fs.String("run", "", "comma-separated analyzer names to run (default: all)")
		depReport = fs.Bool("pointdeps-report", false, "print the PointDeps declared-vs-derived audit as JSON and exit")
		dir       = fs.String("C", ".", "directory to resolve package patterns in")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	all := []*analysis.Analyzer{
		pointdeps.New(pointdeps.Config{}),
		determinism.New(),
		poolrelease.New(),
		reach.New(),
	}
	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *only != "" {
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		analyzers = analyzers[:0:0]
		for _, a := range all {
			if want[a.Name] {
				analyzers = append(analyzers, a)
			}
		}
		if len(analyzers) == 0 {
			fmt.Fprintf(stderr, "gtwvet: no analyzers match -run %q\n", *only)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *depReport {
		entries, err := pointdeps.Audit(prog, pointdeps.Config{})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(entries); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		return 0
	}

	diags, err := analysis.Run(prog, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s: %s: %s\n", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
