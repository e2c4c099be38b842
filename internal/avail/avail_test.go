package avail

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestStateString(t *testing.T) {
	if Up.String() != "u" || Reclaimed.String() != "r" || Down.String() != "d" {
		t.Fatal("state letters wrong")
	}
	if State(9).String() != "State(9)" {
		t.Fatalf("invalid state rendered %q", State(9).String())
	}
	if !Up.Valid() || !Down.Valid() || State(3).Valid() {
		t.Fatal("Valid() wrong")
	}
}

func TestParseVectorRoundTrip(t *testing.T) {
	v, err := ParseVector("uurdudr")
	if err != nil {
		t.Fatal(err)
	}
	if v.String() != "uurdudr" {
		t.Fatalf("round trip gave %q", v.String())
	}
	if _, err := ParseVector("uxd"); err == nil {
		t.Fatal("expected error on invalid letter")
	}
}

func TestVectorProcessReplaysAndClamps(t *testing.T) {
	v, _ := ParseVector("urd")
	p := NewVectorProcess(v)
	want := []State{Up, Reclaimed, Down, Down, Down}
	for i, w := range want {
		if got := p.Next(); got != w {
			t.Fatalf("slot %d: got %v, want %v", i, got, w)
		}
	}
}

func TestVectorProcessEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty vector")
		}
	}()
	NewVectorProcess(nil)
}

func TestRecord(t *testing.T) {
	v, _ := ParseVector("ur")
	got := Record(NewVectorProcess(v), 4)
	if got.String() != "urrr" {
		t.Fatalf("Record = %q", got.String())
	}
}

// TestNewMarkov3Validation pins the exact error for each kind of bad
// matrix: trace fits and callers outside the program hand NewMarkov3
// unchecked input.
func TestNewMarkov3Validation(t *testing.T) {
	ok := [3]float64{0.3, 0.3, 0.4}
	cases := []struct {
		name string
		p    [3][3]float64
		want string
	}{
		{"row-sum", [3][3]float64{{0.5, 0.5, 0.5}, ok, ok},
			"avail: markov: row 0 sums to 1.5, want 1"},
		{"below-zero", [3][3]float64{{-0.1, 1.1, 0}, ok, ok},
			"avail: markov: P[0][0]=-0.1 out of [0,1]"},
		{"above-one", [3][3]float64{{0.5, 0.5, 0}, ok, {0.3, 1.2, -0.5}},
			"avail: markov: P[2][1]=1.2 out of [0,1]"},
		{"nan", [3][3]float64{{math.NaN(), 0.5, 0.5}, ok, ok},
			"avail: markov: P[0][0]=NaN out of [0,1]"},
		{"inf", [3][3]float64{{math.Inf(1), 0, 0}, ok, ok},
			"avail: markov: P[0][0]=+Inf out of [0,1]"},
		{"identity", [3][3]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
			"avail: markov: stationary: singular system at column 1"},
		{"two-closed-classes", [3][3]float64{{0.5, 0.5, 0}, {0.5, 0.5, 0}, {0, 0, 1}},
			"avail: markov: stationary: singular system at column 2"},
	}
	for _, c := range cases {
		m, err := NewMarkov3(c.p)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: NewMarkov3 = (%v, %v), want error %q", c.name, m, err, c.want)
		}
	}
}

func TestMarkov3StationaryUniformSymmetric(t *testing.T) {
	// A symmetric chain has the uniform stationary distribution.
	p := [3][3]float64{
		{0.9, 0.05, 0.05},
		{0.05, 0.9, 0.05},
		{0.05, 0.05, 0.9},
	}
	m := MustMarkov3(p)
	u, r, d := m.Stationary()
	for _, v := range []float64{u, r, d} {
		if math.Abs(v-1.0/3) > 1e-9 {
			t.Fatalf("stationary = (%v,%v,%v), want uniform", u, r, d)
		}
	}
}

func TestRandomMarkov3RespectsPaperRule(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		m := RandomMarkov3(r)
		p := m.Matrix()
		for i := 0; i < 3; i++ {
			if p[i][i] < 0.90 || p[i][i] >= 0.99 {
				t.Fatalf("diagonal P[%d][%d]=%v outside [0.90,0.99)", i, i, p[i][i])
			}
			rest := (1 - p[i][i]) / 2
			for j := 0; j < 3; j++ {
				if i == j {
					continue
				}
				if math.Abs(p[i][j]-rest) > 1e-12 {
					t.Fatalf("off-diagonal P[%d][%d]=%v, want %v", i, j, p[i][j], rest)
				}
			}
		}
	}
}

func TestMarkov3ProcessFirstSlotIsInitial(t *testing.T) {
	m := RandomMarkov3(rng.New(32))
	p := m.NewProcess(rng.New(33), Reclaimed)
	if got := p.Next(); got != Reclaimed {
		t.Fatalf("first slot = %v, want Reclaimed", got)
	}
}

func TestMarkov3ProcessEmpiricalOccupancy(t *testing.T) {
	// Long-run state frequencies must match the stationary distribution.
	m := MustMarkov3([3][3]float64{
		{0.95, 0.03, 0.02},
		{0.04, 0.90, 0.06},
		{0.05, 0.05, 0.90},
	})
	p := m.NewProcess(rng.New(34), Up)
	var counts [3]int
	const n = 400000
	for i := 0; i < n; i++ {
		counts[p.Next()]++
	}
	piU, piR, piD := m.Stationary()
	want := []float64{piU, piR, piD}
	for s, w := range want {
		got := float64(counts[s]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("state %d frequency %v, want %v", s, got, w)
		}
	}
}

func TestMarkov3ProcessDeterministic(t *testing.T) {
	m := RandomMarkov3(rng.New(35))
	a := Record(m.NewProcess(rng.New(36), Up), 500)
	b := Record(m.NewProcess(rng.New(36), Up), 500)
	if a.String() != b.String() {
		t.Fatal("same seed produced different trajectories")
	}
}

func TestSampleStationaryFrequencies(t *testing.T) {
	m := MustMarkov3([3][3]float64{
		{0.95, 0.03, 0.02},
		{0.04, 0.90, 0.06},
		{0.05, 0.05, 0.90},
	})
	r := rng.New(37)
	var counts [3]int
	const n = 200000
	for i := 0; i < n; i++ {
		counts[m.SampleStationary(r)]++
	}
	piU, piR, piD := m.Stationary()
	for s, w := range []float64{piU, piR, piD} {
		got := float64(counts[s]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("stationary sample state %d freq %v, want %v", s, got, w)
		}
	}
}

func TestSemiMarkovValidation(t *testing.T) {
	samp := GeometricSojourn(0.5)
	ok := [3][3]float64{{0, 0.5, 0.5}, {1, 0, 0}, {1, 0, 0}}
	if _, err := NewSemiMarkov(ok, [3]SojournSampler{samp, samp, samp}); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	selfLoop := [3][3]float64{{0.1, 0.4, 0.5}, {1, 0, 0}, {1, 0, 0}}
	if _, err := NewSemiMarkov(selfLoop, [3]SojournSampler{samp, samp, samp}); err == nil {
		t.Fatal("self-loop accepted")
	}
	badSum := [3][3]float64{{0, 0.5, 0.4}, {1, 0, 0}, {1, 0, 0}}
	if _, err := NewSemiMarkov(badSum, [3]SojournSampler{samp, samp, samp}); err == nil {
		t.Fatal("bad row sum accepted")
	}
	if _, err := NewSemiMarkov(ok, [3]SojournSampler{samp, nil, samp}); err == nil {
		t.Fatal("missing sampler accepted")
	}
}

func TestSemiMarkovGeometricMatchesMarkov(t *testing.T) {
	// With geometric sojourns a semi-Markov process is a Markov chain; the
	// empirical occupancy must then match the equivalent chain's stationary
	// distribution.
	stayU, stayR, stayD := 0.95, 0.90, 0.92
	jump := [3][3]float64{
		{0, 0.5, 0.5},
		{0.7, 0, 0.3},
		{0.6, 0.4, 0},
	}
	sm, err := NewSemiMarkov(jump, [3]SojournSampler{
		GeometricSojourn(stayU), GeometricSojourn(stayR), GeometricSojourn(stayD),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Equivalent Markov chain: P(i,i)=stay_i, P(i,j)=(1-stay_i)*jump[i][j].
	m := MustMarkov3([3][3]float64{
		{stayU, (1 - stayU) * 0.5, (1 - stayU) * 0.5},
		{(1 - stayR) * 0.7, stayR, (1 - stayR) * 0.3},
		{(1 - stayD) * 0.6, (1 - stayD) * 0.4, stayD},
	})
	p := sm.NewProcess(rng.New(38), Up)
	var counts [3]int
	const n = 600000
	for i := 0; i < n; i++ {
		counts[p.Next()]++
	}
	piU, piR, piD := m.Stationary()
	for s, w := range []float64{piU, piR, piD} {
		got := float64(counts[s]) / n
		if math.Abs(got-w) > 0.01 {
			t.Fatalf("state %d freq %v, want %v", s, got, w)
		}
	}
}

func TestSemiMarkovSojournLengths(t *testing.T) {
	// A deterministic sampler must produce runs of exactly that length.
	fixed := func(n int) SojournSampler { return func(*rng.PCG) int { return n } }
	jump := [3][3]float64{{0, 1, 0}, {1, 0, 0}, {1, 0, 0}}
	sm, err := NewSemiMarkov(jump, [3]SojournSampler{fixed(3), fixed(2), fixed(1)})
	if err != nil {
		t.Fatal(err)
	}
	p := sm.NewProcess(rng.New(39), Up)
	got := Record(p, 10)
	if got.String() != "uuurruuurr" {
		t.Fatalf("trajectory %q, want uuurruuurr", got.String())
	}
}

func TestWeibullSojournAtLeastOne(t *testing.T) {
	r := rng.New(40)
	s := WeibullSojourn(0.5, 0.1) // tiny scale: many sub-slot draws
	for i := 0; i < 10000; i++ {
		if d := s(r); d < 1 {
			t.Fatalf("sojourn %d < 1", d)
		}
	}
}

func TestQuickRandomModelsAreErgodic(t *testing.T) {
	// Property: every paper-rule random model has a strictly positive
	// stationary distribution (all states recurrent and reachable).
	f := func(seed uint64) bool {
		m := RandomMarkov3(rng.New(seed))
		u, rr, d := m.Stationary()
		return u > 0 && rr > 0 && d > 0 && math.Abs(u+rr+d-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStationary3 is the setup cost of one model: validation and the
// stationary solve, paid once per processor of a generated platform.
func BenchmarkStationary3(b *testing.B) {
	p := [3][3]float64{
		{0.95, 0.025, 0.025},
		{0.03, 0.94, 0.03},
		{0.05, 0.05, 0.90},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMarkov3(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarkov3Next(b *testing.B) {
	m := RandomMarkov3(rng.New(41))
	p := m.NewProcess(rng.New(42), Up)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Next()
	}
}

func TestMarkov3ProcessResetMatchesNew(t *testing.T) {
	m := MustMarkov3([3][3]float64{
		{0.9, 0.05, 0.05},
		{0.1, 0.85, 0.05},
		{0.2, 0.1, 0.7},
	})
	fresh := m.NewProcess(rng.New(5), Reclaimed)
	var pooled Markov3Process
	pooled.Reset(m, rng.New(5), Reclaimed)
	for i := 0; i < 200; i++ {
		if a, b := fresh.Next(), pooled.Next(); a != b {
			t.Fatalf("slot %d: fresh %v vs reset %v", i, a, b)
		}
	}
	// Reset after use rewinds to a brand-new trajectory.
	pooled.Reset(m, rng.New(5), Reclaimed)
	if got := pooled.Next(); got != Reclaimed {
		t.Fatalf("reset process started in %v, want initial Reclaimed", got)
	}
}

func TestVectorProcessReset(t *testing.T) {
	v1, _ := ParseVector("urd")
	v2, _ := ParseVector("du")
	p := NewVectorProcess(v1)
	p.Next()
	p.Reset(v2)
	if a, b := p.Next(), p.Next(); a != Down || b != Up {
		t.Fatalf("reset replay = %v,%v, want d,u", a, b)
	}
	// Past the end it holds the last state, as a fresh process would.
	if got := p.Next(); got != Up {
		t.Fatalf("post-end state %v, want u", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reset accepted an empty vector")
		}
	}()
	p.Reset(nil)
}
