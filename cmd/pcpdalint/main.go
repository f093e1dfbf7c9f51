// Command pcpdalint runs the protocol-contract analyzer suite (DESIGN.md
// §10) over the module:
//
//	go run ./cmd/pcpdalint ./...
//
// It exits 0 when every finding is either absent or justified in the
// committed suppression file (.pcpdalint-suppressions at the module root),
// and 1 otherwise. Stale suppression entries — entries that no longer
// match any finding — are also fatal on a whole-module run, so the file
// cannot rot. The same suite over the same tree is the tier-1 meta-test
// internal/lint/all.TestSuiteCleanOnRealTree; this driver is the tool CI
// and people run (-gh adds GitHub annotations, -v the suppressed findings).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"pcpda/internal/lint"
	"pcpda/internal/lint/all"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("pcpdalint", flag.ExitOnError)
	var (
		listOnly = fs.Bool("list", false, "list the analyzers and exit")
		verbose  = fs.Bool("v", false, "also print suppressed findings")
		ghOut    = fs.Bool("gh", false, "also emit GitHub Actions ::error workflow annotations for unsuppressed findings")
	)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pcpdalint [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range all.Analyzers {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *listOnly {
		for _, a := range all.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcpdalint:", err)
		return 2
	}
	modPath, modDir, err := lint.FindModule(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcpdalint:", err)
		return 2
	}
	supPath := filepath.Join(modDir, lint.SuppressFile)
	sup, err := lint.LoadSuppressions(supPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcpdalint:", err)
		return 2
	}

	start := time.Now()
	loader := lint.NewLoader(lint.ModuleResolver(modPath, modDir))
	pkgs, err := loader.LoadPatterns(modPath, modDir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcpdalint:", err)
		return 2
	}
	findings, err := lint.RunAnalyzers(pkgs, all.Analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pcpdalint:", err)
		return 2
	}
	elapsed := time.Since(start)
	kept, suppressed := sup.Filter(findings)
	if *verbose {
		for _, f := range suppressed {
			fmt.Printf("suppressed: %s\n", f)
		}
	}
	for _, f := range kept {
		fmt.Println(f)
	}
	if *ghOut {
		for _, f := range kept {
			// %0A etc. need no escaping here: messages are single-line.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=pcpdalint %s::%s\n",
				f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
		}
	}
	bad := len(kept) > 0
	// Stale-entry auditing only makes sense when every package the
	// suppressions could refer to was analyzed; on a scoped run an entry
	// for an unanalyzed package would be reported stale spuriously.
	if slices.Contains(patterns, "./...") {
		for _, e := range sup.Unused() {
			fmt.Fprintf(os.Stderr, "pcpdalint: %s:%d: stale suppression (matched nothing): %s %q %q\n", supPath, e.Line, e.Analyzer, e.PathSub, e.MsgSub)
			bad = true
		}
	}
	if bad {
		return 1
	}
	fmt.Printf("pcpdalint: %d packages clean in %v (%d findings suppressed with justification)\n",
		len(pkgs), elapsed.Round(time.Millisecond), len(suppressed))
	return 0
}
