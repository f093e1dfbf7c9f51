// Command pcpdalint runs the protocol-contract analyzer suite (DESIGN.md
// §10) over the module:
//
//	go run ./cmd/pcpdalint ./...
//
// It exits 0 when the packages are clean, 1 on any finding and 2 when it
// could not run (bad flags, no module, a package that does not load). There
// is no suppression mechanism: a false positive is fixed in its analyzer.
// The same suite over the same tree is the tier-1 meta-test
// internal/lint/all.TestSuiteCleanOnRealTree; this driver is the tool CI
// and people run (-gh adds GitHub annotations).
package main

import (
	"flag"
	"fmt"
	"os"
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
		ghOut    = fs.Bool("gh", false, "also emit GitHub Actions ::error workflow annotations for findings")
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
	for _, f := range findings {
		fmt.Println(f)
	}
	if *ghOut {
		for _, f := range findings {
			// %0A etc. need no escaping here: messages are single-line.
			fmt.Printf("::error file=%s,line=%d,col=%d,title=pcpdalint %s::%s\n",
				f.Position.Filename, f.Position.Line, f.Position.Column, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		return 1
	}
	fmt.Printf("pcpdalint: %d packages clean in %v\n", len(pkgs), elapsed.Round(time.Millisecond))
	return 0
}
