package trace

import (
	"math"
	"strings"
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
)

func TestSetValidate(t *testing.T) {
	if err := (&Set{}).Validate(); err == nil {
		t.Fatal("empty set accepted")
	}
	v1, _ := avail.ParseVector("uud")
	v2, _ := avail.ParseVector("ur")
	if err := (&Set{Vectors: []avail.Vector{v1, v2}}).Validate(); err == nil {
		t.Fatal("ragged set accepted")
	}
	if err := (&Set{Vectors: []avail.Vector{v1, v1}}).Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	v1, _ := avail.ParseVector("uurdu")
	v2, _ := avail.ParseVector("ruddu")
	s := &Set{Vectors: []avail.Vector{v1, v2}}
	var b strings.Builder
	if err := s.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vectors) != 2 ||
		got.Vectors[0].String() != "uurdu" ||
		got.Vectors[1].String() != "ruddu" {
		t.Fatalf("round trip gave %v", got.Vectors)
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	cases := []string{
		"",
		"volatrace\n",
		"volatrace 2 3\nuuu\n",        // missing vector
		"volatrace 1 3\nux!\n",        // bad letters
		"volatrace 1 5\nuuu\n",        // wrong length
		"volatrace -1 5\nuuuuu\n",     // bad dims
		"notatrace 1 3\nuuu\n",        // bad magic
		"volatrace 0 0\n",             // zero dims
		"volatrace 1 3\n" + "uu\n",    // short vector
		"volatrace 2 2\nuu\nuu\nuu\n", // extra lines are ignored harmlessly? no: only 2 read
	}
	for i, c := range cases[:9] {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted: %q", i, c)
		}
	}
}

func TestRecordAndReplay(t *testing.T) {
	r := rng.New(71)
	m := avail.RandomMarkov3(r)
	procs := []avail.Process{
		m.NewProcess(r.Split(), avail.Up),
		m.NewProcess(r.Split(), avail.Up),
	}
	s := Record(procs, 100)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Replay must reproduce the recording exactly.
	replays := make([]avail.Process, len(s.Vectors))
	for q, v := range s.Vectors {
		replays[q] = avail.NewVectorProcess(v)
	}
	replayed := Record(replays, 100)
	for q := range s.Vectors {
		if s.Vectors[q].String() != replayed.Vectors[q].String() {
			t.Fatalf("replay diverged on vector %d", q)
		}
	}
}

func TestSynthProcessesAllStyles(t *testing.T) {
	for _, style := range []FTAStyle{Weibull, Pareto, LogNormal} {
		r := rng.New(uint64(style) + 80)
		p, err := NewSynthProcess(r, SynthOptions{Style: style})
		if err != nil {
			t.Fatalf("%v: %v", style, err)
		}
		v := avail.Record(p, 20000)
		piU, piR, piD := EmpiricalStationary(v)
		// With means 40/10/20 and UP->(0.7 R | 0.3 D): expected cycle is
		// 40 + 0.7*10 + 0.3*20 = 53 slots, 40 of them UP. Heavy-tailed
		// samplers drift from the target mean after ceil(); accept broad
		// bands — the point is a plausible mix of all three states.
		if piU < 0.45 || piU > 0.95 {
			t.Fatalf("%v: piU = %v out of band", style, piU)
		}
		if piR <= 0 || piD <= 0 {
			t.Fatalf("%v: degenerate occupancy (piR=%v piD=%v)", style, piR, piD)
		}
		if math.Abs(piU+piR+piD-1) > 1e-9 {
			t.Fatalf("%v: occupancy does not sum to 1", style)
		}
	}
}

func TestSynthDeterministic(t *testing.T) {
	mk := func() avail.Vector {
		p, err := NewSynthProcess(rng.New(99), SynthOptions{Style: Pareto})
		if err != nil {
			t.Fatal(err)
		}
		return avail.Record(p, 500)
	}
	if mk().String() != mk().String() {
		t.Fatal("synthetic trace not reproducible")
	}
}

func TestFitMarkov3RecoverTransitions(t *testing.T) {
	// Fit on a long trajectory of a known chain: estimates must be close.
	truth := avail.MustMarkov3([3][3]float64{
		{0.92, 0.05, 0.03},
		{0.06, 0.90, 0.04},
		{0.08, 0.04, 0.88},
	})
	v := avail.Record(truth.NewProcess(rng.New(72), avail.Up), 300000)
	fit, err := FitMarkov3(v)
	if err != nil {
		t.Fatal(err)
	}
	for i := avail.State(0); i < 3; i++ {
		for j := avail.State(0); j < 3; j++ {
			if diff := math.Abs(fit.P(i, j) - truth.P(i, j)); diff > 0.01 {
				t.Fatalf("P(%v,%v): fit %v vs truth %v", i, j, fit.P(i, j), truth.P(i, j))
			}
		}
	}
}

func TestFitMarkov3ShortVector(t *testing.T) {
	if _, err := FitMarkov3(avail.Vector{avail.Up}); err == nil {
		t.Fatal("single-slot vector accepted")
	}
	// Smoothing keeps unseen transitions positive and rows stochastic.
	v, _ := avail.ParseVector("uuuu")
	fit, err := FitMarkov3(v)
	if err != nil {
		t.Fatal(err)
	}
	if fit.P(avail.Down, avail.Up) <= 0 {
		t.Fatal("smoothed probability not positive")
	}
}

func TestEmpiricalStationary(t *testing.T) {
	v, _ := avail.ParseVector("uurd")
	piU, piR, piD := EmpiricalStationary(v)
	if piU != 0.5 || piR != 0.25 || piD != 0.25 {
		t.Fatalf("got (%v,%v,%v)", piU, piR, piD)
	}
	u0, r0, d0 := EmpiricalStationary(nil)
	if u0 != 0 || r0 != 0 || d0 != 0 {
		t.Fatal("empty vector not zero")
	}
}
