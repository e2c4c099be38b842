package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDFB(t *testing.T) {
	if got := DFB(100, 100); got != 0 {
		t.Fatalf("DFB(best) = %v", got)
	}
	if got := DFB(150, 100); got != 50 {
		t.Fatalf("DFB = %v, want 50", got)
	}
	if got := DFB(5, 0); got != 0 {
		t.Fatalf("DFB with zero best = %v", got)
	}
}

func TestInstanceBest(t *testing.T) {
	ir := &InstanceResult{
		Makespans: map[string]int{"a": 120, "b": 100, "c": 90},
		Censored:  map[string]bool{"c": true},
	}
	best, ok := ir.Best()
	if !ok || best != 100 {
		t.Fatalf("Best = %d/%v, want 100/true", best, ok)
	}
	all := &InstanceResult{
		Makespans: map[string]int{"a": 1},
		Censored:  map[string]bool{"a": true},
	}
	if _, ok := all.Best(); ok {
		t.Fatal("all-censored instance has a best")
	}
}

func TestAggregatorTableSemantics(t *testing.T) {
	a := NewAggregator()
	// Instance 1: b best, a 50% worse.
	a.Add(&InstanceResult{Makespans: map[string]int{"a": 150, "b": 100}})
	// Instance 2: tie.
	a.Add(&InstanceResult{Makespans: map[string]int{"a": 200, "b": 200}})
	// All-censored instance is dropped.
	a.Add(&InstanceResult{
		Makespans: map[string]int{"a": 999, "b": 999},
		Censored:  map[string]bool{"a": true, "b": true},
	})
	if a.Instances() != 2 {
		t.Fatalf("Instances = %d, want 2", a.Instances())
	}
	rows := a.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0].Name != "b" || rows[0].AvgDFB != 0 || rows[0].Wins != 2 {
		t.Fatalf("row 0 = %+v", rows[0])
	}
	if rows[1].Name != "a" || rows[1].AvgDFB != 25 || rows[1].Wins != 1 {
		t.Fatalf("row 1 = %+v", rows[1])
	}
	if v, ok := a.AvgDFB("a"); !ok || v != 25 {
		t.Fatalf("AvgDFB(a) = %v/%v", v, ok)
	}
	if _, ok := a.AvgDFB("zzz"); ok {
		t.Fatal("AvgDFB of unknown heuristic reported ok")
	}
}

func TestCensoredNeverWins(t *testing.T) {
	a := NewAggregator()
	a.Add(&InstanceResult{
		Makespans: map[string]int{"a": 100, "b": 100},
		Censored:  map[string]bool{"a": true},
	})
	rows := a.Rows()
	for _, r := range rows {
		if r.Name == "a" && r.Wins != 0 {
			t.Fatal("censored heuristic won")
		}
		if r.Name == "b" && r.Wins != 1 {
			t.Fatal("uncensored best did not win")
		}
	}
}

func TestDescriptiveStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if got := StdDev(xs); math.Abs(got-1.2909944487) > 1e-9 {
		t.Fatalf("StdDev = %v", got)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 || CI95(nil) != 0 {
		t.Fatal("empty-input stats not zero")
	}
	if StdDev([]float64{5}) != 0 {
		t.Fatal("single-sample StdDev not zero")
	}
}

func TestQuickDFBNonNegativeForBestAtMost(t *testing.T) {
	f := func(a, b uint16) bool {
		best := int(b%1000) + 1
		ms := best + int(a%1000)
		return DFB(ms, best) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWinsSumAtLeastInstances(t *testing.T) {
	// Every instance has at least one winner, so total wins >= instances.
	f := func(seeds []uint8) bool {
		a := NewAggregator()
		for _, s := range seeds {
			m := map[string]int{"x": 100 + int(s)%7, "y": 100 + int(s/2)%7}
			a.Add(&InstanceResult{Makespans: m})
		}
		total := 0
		for _, r := range a.Rows() {
			total += r.Wins
		}
		return total >= a.Instances()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
