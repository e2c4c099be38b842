// Command benchjson converts `go test -bench` output into a small JSON
// document, so benchmark results can be recorded as machine-readable
// artifacts (the CI bench-smoke job writes BENCH_table2.json this way):
//
//	go test -run '^$' -bench 'BenchmarkTable2$' -benchtime 1x -benchmem . \
//	    | go run ./cmd/benchjson -o BENCH_table2.json
//
// Each benchmark line ("BenchmarkX <N> <value> <unit> ...") becomes an entry
// with its iteration count and a metrics map keyed by unit — ns/op, B/op,
// allocs/op, and any custom b.ReportMetric units — and the package of the
// nearest "pkg:" header above it, so output concatenated from several
// packages keeps every entry's own label. The goos/goarch/cpu header lines
// are carried through when present. Log blocks ("--- BENCH:") and the
// trailing ok/FAIL line are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/atomicio"
)

type benchmark struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

type document struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	var require requireFlag
	flag.Var(&require, "require", "fail unless this benchmark was parsed (repeatable; matches with or without the -GOMAXPROCS suffix)")
	flag.Parse()

	doc, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(doc.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if missing := missingRequired(doc, require); len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: required benchmark(s) missing from input: %s\n",
			strings.Join(missing, ", "))
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	err = atomicio.WriteFile(*out, func(w io.Writer) error {
		_, werr := w.Write(enc)
		return werr
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// requireFlag collects the repeatable -require values.
type requireFlag []string

func (r *requireFlag) String() string { return strings.Join(*r, ",") }
func (r *requireFlag) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// missingRequired returns the -require names absent from the parsed
// document. A requirement matches a benchmark verbatim or with go test's
// -GOMAXPROCS suffix ("BenchmarkTable2" matches "BenchmarkTable2-8"), so a
// pinned CI requirement keeps holding on multi-core runners. The caller
// fails on a non-empty result: a bench job whose output lost its benchmark
// (build failure mid-pipe, renamed benchmark, panicking run) must fail
// loudly instead of recording a gap in the artifact history.
func missingRequired(doc *document, require []string) []string {
	var missing []string
	for _, req := range require {
		found := false
		for _, b := range doc.Benchmarks {
			if b.Name == req || strings.HasPrefix(b.Name, req+"-") {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, req)
		}
	}
	return missing
}

func parse(sc *bufio.Scanner) (*document, error) {
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	doc := &document{}
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			doc.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			doc.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			doc.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				b.Pkg = pkg
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	return doc, sc.Err()
}

// parseBenchLine parses "BenchmarkX-8  <N>  <value> <unit> ...". Lines that
// merely start with "Benchmark" but lack the result shape (e.g. inside a
// "--- BENCH:" log block) are skipped, not errors.
func parseBenchLine(line string) (benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchmark{}, false, nil
	}
	b := benchmark{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return benchmark{}, false, fmt.Errorf("bad value %q in %q: %v", fields[i], line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true, nil
}
