package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkTable2 	       1	12754733817 ns/op	         4.384 emct_dfb	 2784696 B/op	   56295 allocs/op
--- BENCH: BenchmarkTable2
    bench_test.go:59: Table 2 (reduced: 120 instances)
PASS
ok  	repro	12.758s
`

func parseSample(t *testing.T, in string) *document {
	t.Helper()
	doc, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseBenchOutput(t *testing.T) {
	doc := parseSample(t, sampleBench)
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkTable2" || b.Iterations != 1 {
		t.Fatalf("benchmark %+v", b)
	}
	if b.Metrics["ns/op"] != 12754733817 || b.Metrics["emct_dfb"] != 4.384 {
		t.Fatalf("metrics %+v", b.Metrics)
	}
	if doc.CPU == "" || doc.Goos != "linux" {
		t.Fatalf("header not carried through: %+v", doc)
	}
}

func TestParseLabelsEachBenchmarkWithItsPackage(t *testing.T) {
	// go test over several packages repeats the header per package; each
	// entry must carry the package it ran in, not the last one seen.
	two := sampleBench + strings.NewReplacer("pkg: repro\n", "pkg: repro/internal/sim\n",
		"BenchmarkTable2 ", "BenchmarkLargePlatform/p=1k/slot ").Replace(sampleBench)
	doc := parseSample(t, two)
	if len(doc.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(doc.Benchmarks))
	}
	for i, want := range []string{"repro", "repro/internal/sim"} {
		if got := doc.Benchmarks[i].Pkg; got != want {
			t.Fatalf("benchmark %d (%s) labelled %q, want %q", i, doc.Benchmarks[i].Name, got, want)
		}
	}
}

func TestMissingRequired(t *testing.T) {
	doc := parseSample(t, sampleBench)
	if m := missingRequired(doc, []string{"BenchmarkTable2"}); len(m) != 0 {
		t.Fatalf("present benchmark reported missing: %v", m)
	}
	// The -GOMAXPROCS suffix must satisfy a suffix-less requirement.
	suffixed := strings.Replace(sampleBench, "BenchmarkTable2 ", "BenchmarkTable2-8 ", 1)
	if m := missingRequired(parseSample(t, suffixed), []string{"BenchmarkTable2"}); len(m) != 0 {
		t.Fatalf("suffixed benchmark reported missing: %v", m)
	}
	// A renamed or absent benchmark must be flagged, not silently skipped.
	if m := missingRequired(doc, []string{"BenchmarkTable3"}); len(m) != 1 || m[0] != "BenchmarkTable3" {
		t.Fatalf("absent benchmark not flagged: %v", m)
	}
	// Prefix matching is on the -GOMAXPROCS boundary only: a requirement
	// must not be satisfied by a longer, different benchmark name.
	other := strings.Replace(sampleBench, "BenchmarkTable2 ", "BenchmarkTable2Extra ", 1)
	if m := missingRequired(parseSample(t, other), []string{"BenchmarkTable2"}); len(m) != 1 {
		t.Fatalf("unrelated benchmark satisfied the requirement: %v", m)
	}
}

func TestParseRejectsNothing(t *testing.T) {
	// Output with no benchmark lines parses to an empty document; main
	// turns that into a hard failure so bench artifacts cannot record gaps.
	doc := parseSample(t, "goos: linux\nPASS\nok repro 1.0s\n")
	if len(doc.Benchmarks) != 0 {
		t.Fatalf("phantom benchmarks parsed: %+v", doc.Benchmarks)
	}
}
