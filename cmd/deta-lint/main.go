// deta-lint runs the project's static-analysis suite (internal/lint): the
// security and determinism invariants the compiler cannot check, enforced
// mechanically on every build. See DESIGN.md §10.
//
// Usage:
//
//	deta-lint [-list] [-sarif file] [packages]
//
// With no packages it lints ./.... A finding is either fixed or
// acknowledged at its call site with //lint:ignore <analyzer> <reason>;
// there is no other way to waive one. Exit status: 0 clean, 1 findings,
// 2 usage or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"deta/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable body of deta-lint: it parses args on its own
// FlagSet, prints findings to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("deta-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	sarifOut := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "deta-lint:", err)
		return 2
	}
	pkgs, err := lint.NewLoader().Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "deta-lint:", err)
		return 2
	}

	findings := lint.Run(pkgs, analyzers)
	if *sarifOut != "" {
		if err := lint.WriteSARIF(*sarifOut, wd, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "deta-lint:", err)
			return 2
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "deta-lint: %d finding(s) across %d package(s)\n", len(findings), len(pkgs))
		return 1
	}
	return 0
}
