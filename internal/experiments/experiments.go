// Package experiments regenerates every table and figure of the paper's
// evaluation, plus the extension experiments catalogued in DESIGN.md §2.
// cmd/experiments is a thin CLI over this package, so the numbers in
// EXPERIMENTS.md always come from this code.
package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one reproducible unit: it writes its report to w and
// returns an error only on infrastructure failure (a mismatch against the
// paper is reported in the output, not as an error).
type Experiment struct {
	Name  string // CLI name, e.g. "fig1"
	Title string // human title
	Run   func(w io.Writer) error
}

// registry is populated by the files of this package.
var registry []Experiment

func register(name, title string, run func(io.Writer) error) {
	registry = append(registry, Experiment{Name: name, Title: title, Run: run})
}

// All returns every experiment in registration (paper) order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// Names returns the experiment names, sorted.
func Names() []string {
	var out []string
	for _, e := range registry {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll executes every experiment in order, with section headers.
func RunAll(w io.Writer) error {
	for _, e := range All() {
		if err := RunOne(w, e); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes one experiment with its header. The experiment writes
// through a stickyWriter, so the first output failure is returned once here
// instead of being checked (or dropped) at every print in the report code.
func RunOne(w io.Writer, e Experiment) error {
	sw := &stickyWriter{w: w}
	pf(sw, "\n================================================================================\n")
	pf(sw, "%s — %s\n", e.Name, e.Title)
	pf(sw, "================================================================================\n")
	if err := e.Run(sw); err != nil {
		return err
	}
	return sw.err
}

// stickyWriter remembers the first write error and turns every later write
// into a no-op, so report code can print line by line without threading an
// error through each call.
type stickyWriter struct {
	w   io.Writer
	err error
}

func (s *stickyWriter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n, err := s.w.Write(p)
	if err != nil {
		s.err = err
	}
	return n, err
}

// pf and pln are the package's report-print helpers. They have no error
// result on purpose: all report output flows through the stickyWriter
// installed by RunOne, which surfaces the first write failure as the
// experiment's return error, so per-call checks would only add noise.
func pf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...) // first failure is held by the stickyWriter
}

func pln(w io.Writer, args ...any) {
	_, _ = fmt.Fprintln(w, args...) // first failure is held by the stickyWriter
}

// check prints a PASS/FAIL line for an expectation derived from the paper.
func check(w io.Writer, ok bool, format string, args ...any) {
	status := "PASS"
	if !ok {
		status = "FAIL"
	}
	pf(w, "  [%s] %s\n", status, fmt.Sprintf(format, args...))
}
