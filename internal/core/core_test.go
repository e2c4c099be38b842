package core

import (
	"math"
	"testing"

	"repro/internal/avail"
	"repro/internal/expect"
	"repro/internal/oracle"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/sim"
)

func reliableModel() *avail.Markov3 {
	return avail.MustMarkov3([3][3]float64{
		{0.98, 0.01, 0.01},
		{0.02, 0.96, 0.02},
		{0.05, 0.05, 0.90},
	})
}

func flakyModel() *avail.Markov3 {
	return avail.MustMarkov3([3][3]float64{
		{0.90, 0.02, 0.08},
		{0.02, 0.90, 0.08},
		{0.05, 0.05, 0.90},
	})
}

func params(ncom, tprog, tdata int) *platform.Params {
	return &platform.Params{M: 10, Iterations: 10, Ncom: ncom, Tprog: tprog, Tdata: tdata}
}

func TestDelayIdleWorker(t *testing.T) {
	pv := &sim.ProcView{ID: 0, W: 4, RemProgram: 5}
	if got := Delay(pv); got != 5 {
		t.Fatalf("Delay = %d, want 5 (full program)", got)
	}
	pv.RemProgram = 0
	if got := Delay(pv); got != 0 {
		t.Fatalf("Delay = %d, want 0 (idle, program held)", got)
	}
}

func TestDelayComputingOnly(t *testing.T) {
	pv := &sim.ProcView{ID: 0, W: 4, HasComputing: true, ComputingRem: 3}
	if got := Delay(pv); got != 3 {
		t.Fatalf("Delay = %d, want 3", got)
	}
}

func TestDelayIncomingOverlapsComputing(t *testing.T) {
	// Computing has 6 slots left; incoming data lands after 2 slots.
	// The incoming task starts when the computation frees (6) and needs W=4:
	// Delay = 6 + 4 = 10.
	pv := &sim.ProcView{
		ID: 0, W: 4,
		HasComputing: true, ComputingRem: 6,
		HasIncoming: true, IncomingRem: 2,
	}
	if got := Delay(pv); got != 10 {
		t.Fatalf("Delay = %d, want 10", got)
	}
	// Now the data is the bottleneck: remaining program 4 + data 3 = 7 > 2.
	pv.ComputingRem = 2
	pv.RemProgram = 4
	pv.IncomingRem = 3
	if got := Delay(pv); got != 11 {
		t.Fatalf("Delay = %d, want 11 (7 data + 4 compute)", got)
	}
}

func TestDelayIncomingAwaitingPromotion(t *testing.T) {
	// Data complete (IncomingRem 0) behind a computation with 5 slots left:
	// Delay = 5 + W.
	pv := &sim.ProcView{
		ID: 0, W: 2,
		HasComputing: true, ComputingRem: 5,
		HasIncoming: true, IncomingRem: 0,
	}
	if got := Delay(pv); got != 7 {
		t.Fatalf("Delay = %d, want 7", got)
	}
}

func TestCTEquationOne(t *testing.T) {
	// CT(P_q, n_q) = Delay + Tdata + max(n_q-1,0)*max(Tdata, w) + w.
	pv := &sim.ProcView{ID: 0, W: 3, RemProgram: 5}
	// nq=1: 5 + 2 + 0 + 3 = 10.
	if got := CT(pv, 1, 2); got != 10 {
		t.Fatalf("CT(1) = %d, want 10", got)
	}
	// nq=3: 5 + 2 + 2*max(2,3) + 3 = 16.
	if got := CT(pv, 3, 2); got != 16 {
		t.Fatalf("CT(3) = %d, want 16", got)
	}
	// Communication-dominated: tdata=7 > w: nq=3: 5 + 7 + 2*7 + 3 = 29.
	if got := CT(pv, 3, 7); got != 29 {
		t.Fatalf("CT(3, tdata=7) = %d, want 29", got)
	}
}

func TestCorrectedTdata(t *testing.T) {
	prm := params(5, 10, 3)
	cases := []struct{ nactive, want int }{
		{0, 3},  // clamped to 1 active
		{1, 3},  // ceil(1/5)=1
		{5, 3},  // ceil(5/5)=1
		{6, 6},  // ceil(6/5)=2
		{10, 6}, // ceil(10/5)=2
		{11, 9}, // ceil(11/5)=3
	}
	for _, c := range cases {
		if got := oracle.CorrectedTdata(prm, c.nactive); got != c.want {
			t.Fatalf("CorrectedTdata(nactive=%d) = %d, want %d", c.nactive, got, c.want)
		}
	}
	// The greedy scorers inline the factor as commFactor; it must agree
	// with the reference for every round size, including an empty round.
	for ncom := 1; ncom <= 6; ncom++ {
		prm := params(ncom, 10, 3)
		for na := 0; na <= 20; na++ {
			if got, want := commFactor(na, ncom)*prm.Tdata, oracle.CorrectedTdata(prm, na); got != want {
				t.Fatalf("ncom=%d nactive=%d: commFactor gives Tdata %d, reference %d", ncom, na, got, want)
			}
		}
	}
}

// mkView builds a two-processor view for heuristic selection tests.
func mkView(prm *platform.Params, a, b sim.ProcView) *sim.View {
	a.ID, b.ID = 0, 1
	a.State, b.State = avail.Up, avail.Up
	v := &sim.View{Params: prm, Procs: []sim.ProcView{a, b}}
	v.FillAnalytics()
	return v
}

func freshRound(n int) *sim.RoundState { return &sim.RoundState{NQ: make([]int, n)} }

func TestMCTPrefersFasterCompletion(t *testing.T) {
	prm := params(5, 10, 2)
	// Worker 0: idle with program, slow (w=9) -> CT = 0+2+9 = 11.
	// Worker 1: no program, fast (w=2) -> CT = 10+2+2 = 14.
	v := mkView(prm,
		sim.ProcView{W: 9, RemProgram: 0, Model: reliableModel()},
		sim.ProcView{W: 2, RemProgram: 10, Model: reliableModel()},
	)
	s := NewMCT(false)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != 0 {
		t.Fatalf("MCT picked %d, want 0", got)
	}
	// With the program already present on worker 1, it wins: 2+2=4 < 11.
	v.Procs[1].RemProgram = 0
	if got := s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != 1 {
		t.Fatalf("MCT picked %d, want 1", got)
	}
}

func TestMCTAccountsForQueuedTasks(t *testing.T) {
	prm := params(5, 0, 1)
	v := mkView(prm,
		sim.ProcView{W: 2, Model: reliableModel()},
		sim.ProcView{W: 3, Model: reliableModel()},
	)
	s := NewMCT(false)
	rs := freshRound(2)
	// Repeatedly assigning tasks must alternate once the fast worker's queue
	// makes it slower than the idle one: CT0(n)=1+(n-1)*2+2, CT1(1)=1+3=4.
	picks := make([]int, 6)
	for i := range picks {
		q := s.Pick(v, []int{0, 1}, rs, sim.TaskInfo{Task: i})
		rs.NQ[q]++
		picks[i] = q
	}
	if picks[0] != 0 {
		t.Fatalf("first pick %d, want 0 (fast worker)", picks[0])
	}
	saw1 := false
	for _, q := range picks {
		if q == 1 {
			saw1 = true
		}
	}
	if !saw1 {
		t.Fatal("MCT never spilled to the second worker despite queue buildup")
	}
}

func TestEMCTPrefersLessReclaimedWhenCTEqual(t *testing.T) {
	// E(W) conditions on never reaching DOWN, so what it penalizes is time
	// expected to be lost to RECLAIMED interruptions (crash risk is the
	// domain of LW/UD). With equal raw CT, EMCT must prefer the processor
	// whose conditioned walks are least inflated; MCT is indifferent
	// (tie -> lowest ID).
	reclaimHeavy := avail.MustMarkov3([3][3]float64{
		{0.90, 0.08, 0.02},
		{0.05, 0.90, 0.05},
		{0.05, 0.05, 0.90},
	})
	reclaimLight := avail.MustMarkov3([3][3]float64{
		{0.97, 0.01, 0.02},
		{0.50, 0.30, 0.20},
		{0.05, 0.05, 0.90},
	})
	if expect.ExpectedUpStep(reclaimHeavy) <= expect.ExpectedUpStep(reclaimLight) {
		t.Fatal("test setup: reclaimHeavy should have larger E(up)")
	}
	prm := params(5, 10, 2)
	v := mkView(prm,
		sim.ProcView{W: 5, Model: reclaimHeavy},
		sim.ProcView{W: 5, Model: reclaimLight},
	)
	emct := NewEMCT(false)
	if got := emct.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != 1 {
		t.Fatalf("EMCT picked %d, want reclaim-light worker 1", got)
	}
	mct := NewMCT(false)
	if got := mct.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != 0 {
		t.Fatalf("MCT picked %d, want tie-broken worker 0", got)
	}
}

func TestEMCTMatchesExpectedSlotsOrdering(t *testing.T) {
	// EMCT's score must equal expect.ExpectedSlots at the CT horizon.
	prm := params(5, 4, 2)
	v := mkView(prm,
		sim.ProcView{W: 3, Model: flakyModel()},
		sim.ProcView{W: 4, Model: reliableModel()},
	)
	ct0 := float64(CT(&v.Procs[0], 1, prm.Tdata))
	ct1 := float64(CT(&v.Procs[1], 1, prm.Tdata))
	e0 := expect.ExpectedSlots(v.Procs[0].Model, ct0)
	e1 := expect.ExpectedSlots(v.Procs[1].Model, ct1)
	want := 0
	if e1 < e0 {
		want = 1
	}
	s := NewEMCT(false)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != want {
		t.Fatalf("EMCT picked %d, want %d (E0=%v E1=%v)", got, want, e0, e1)
	}
}

func TestLWPicksArgmaxSurvival(t *testing.T) {
	prm := params(5, 0, 1)
	v := mkView(prm,
		sim.ProcView{W: 2, Model: flakyModel()},    // fast but flaky
		sim.ProcView{W: 3, Model: reliableModel()}, // slower but reliable
	)
	// Compare (P+)^CT directly.
	p0 := math.Pow(expect.PPlus(v.Procs[0].Model), float64(CT(&v.Procs[0], 1, 1)))
	p1 := math.Pow(expect.PPlus(v.Procs[1].Model), float64(CT(&v.Procs[1], 1, 1)))
	want := 0
	if p1 > p0 {
		want = 1
	}
	s := NewLW(false)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != want {
		t.Fatalf("LW picked %d, want %d (p0=%v p1=%v)", got, want, p0, p1)
	}
}

func TestUDPicksArgmaxNoDownSurvival(t *testing.T) {
	prm := params(5, 0, 1)
	v := mkView(prm,
		sim.ProcView{W: 2, Model: flakyModel()},
		sim.ProcView{W: 3, Model: reliableModel()},
	)
	k0 := expect.ExpectedSlots(v.Procs[0].Model, float64(CT(&v.Procs[0], 1, 1)))
	k1 := expect.ExpectedSlots(v.Procs[1].Model, float64(CT(&v.Procs[1], 1, 1)))
	p0 := oracle.SurvivalUDApprox(v.Procs[0].Model, k0)
	p1 := oracle.SurvivalUDApprox(v.Procs[1].Model, k1)
	want := 0
	if p1 > p0 {
		want = 1
	}
	s := NewUD(false)
	if got := s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != want {
		t.Fatalf("UD picked %d, want %d (p0=%v p1=%v)", got, want, p0, p1)
	}
}

func TestStarVariantsUseCorrectedTdata(t *testing.T) {
	// With many processors already activated, the corrected variants see a
	// larger effective Tdata, which can flip a choice toward a processor
	// whose compute dominates.
	prm := params(1, 0, 4) // ncom=1: every active processor doubles the factor
	v := mkView(prm,
		sim.ProcView{W: 10, Model: reliableModel()}, // compute-heavy
		sim.ProcView{W: 1, Model: reliableModel()},  // data-heavy under contention
	)
	rs := freshRound(2)
	rs.NActive = 5 // five processors already put to work this round
	// Uncorrected MCT: CT0 = 4+10 = 14, CT1 = 4+1 = 5 -> picks 1.
	if got := NewMCT(false).Pick(v, []int{0, 1}, rs, sim.TaskInfo{}); got != 1 {
		t.Fatalf("MCT picked %d, want 1", got)
	}
	// Corrected: factor = nactive+1 = 6 (both idle; ncom=1), tdata=24:
	// CT0 = 24+10 = 34, CT1 = 24+1 = 25 -> still 1... use queue to flip:
	rs.NQ[1] = 3 // worker 1 already has 3 tasks this round
	// corrected: CT1 = 24 + 3*max(24,1) + 1 = 97; CT0 = 24 + 10 = 34 -> 0.
	if got := NewMCT(true).Pick(v, []int{0, 1}, rs, sim.TaskInfo{}); got != 0 {
		t.Fatalf("MCT* picked %d, want 0", got)
	}
	// Uncorrected with the same queue: CT1 = 4 + 3*4 + 1 = 17 > CT0 = 14 -> 0 too;
	// shrink the queue to separate them: NQ[1]=1:
	rs.NQ[1] = 1
	// MCT: CT1 = 4 + 4 + 1 = 9 < 14 -> 1. MCT*: CT1 = 24+24+1 = 49 > 34 -> 0.
	if got := NewMCT(false).Pick(v, []int{0, 1}, rs, sim.TaskInfo{}); got != 1 {
		t.Fatalf("MCT with queue picked %d, want 1", got)
	}
	if got := NewMCT(true).Pick(v, []int{0, 1}, rs, sim.TaskInfo{}); got != 0 {
		t.Fatalf("MCT* with queue picked %d, want 0", got)
	}
}

func TestRandomUniformCoversEligible(t *testing.T) {
	prm := params(5, 1, 1)
	v := &sim.View{Params: prm, Procs: make([]sim.ProcView, 4)}
	for i := range v.Procs {
		v.Procs[i] = sim.ProcView{ID: i, W: 1, State: avail.Up, Model: reliableModel()}
	}
	v.FillAnalytics()
	s := NewRandom(rng.New(1))
	counts := map[int]int{}
	eligible := []int{0, 2, 3}
	for i := 0; i < 3000; i++ {
		q := s.Pick(v, eligible, freshRound(4), sim.TaskInfo{})
		counts[q]++
	}
	if counts[1] != 0 {
		t.Fatal("random picked ineligible processor")
	}
	for _, q := range eligible {
		if counts[q] < 800 {
			t.Fatalf("processor %d picked only %d/3000 times", q, counts[q])
		}
	}
}

func TestWeightedRandomBiases(t *testing.T) {
	prm := params(5, 1, 1)
	v := &sim.View{Params: prm, Procs: []sim.ProcView{
		{ID: 0, W: 1, State: avail.Up, Model: flakyModel()},
		{ID: 1, W: 1, State: avail.Up, Model: reliableModel()},
	}}
	v.FillAnalytics()
	s, err := NewWeightedRandom(2, false, rng.New(2)) // weight = P+
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		counts[s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{})]++
	}
	w0, w1 := expect.PPlus(flakyModel()), expect.PPlus(reliableModel())
	wantRatio := w1 / w0
	gotRatio := float64(counts[1]) / float64(counts[0])
	if math.Abs(gotRatio-wantRatio)/wantRatio > 0.1 {
		t.Fatalf("pick ratio %v, want ~%v", gotRatio, wantRatio)
	}
}

func TestWeightedRandomBySpeed(t *testing.T) {
	// Same model, speeds 1 vs 4: the "w" variant must favor the fast one 4:1.
	prm := params(5, 1, 1)
	v := &sim.View{Params: prm, Procs: []sim.ProcView{
		{ID: 0, W: 4, State: avail.Up, Model: reliableModel()},
		{ID: 1, W: 1, State: avail.Up, Model: reliableModel()},
	}}
	v.FillAnalytics()
	s, err := NewWeightedRandom(1, true, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for i := 0; i < 20000; i++ {
		counts[s.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{})]++
	}
	ratio := float64(counts[1]) / float64(counts[0])
	if math.Abs(ratio-4) > 0.5 {
		t.Fatalf("speed-weighted ratio %v, want ~4", ratio)
	}
}

func TestWeightedRandomRejectsBadIndex(t *testing.T) {
	if _, err := NewWeightedRandom(0, false, rng.New(1)); err == nil {
		t.Fatal("index 0 accepted")
	}
	if _, err := NewWeightedRandom(5, true, rng.New(1)); err == nil {
		t.Fatal("index 5 accepted")
	}
}

func TestRegistryCompleteness(t *testing.T) {
	names := Names()
	if len(names) != 17 {
		t.Fatalf("Names() lists %d heuristics, want 17 (Table 2)", len(names))
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("duplicate name %q", name)
		}
		seen[name] = true
		s, err := New(name, rng.New(1))
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("scheduler for %q reports name %q", name, s.Name())
		}
	}
	if _, err := New("nope", rng.New(1)); err == nil {
		t.Fatal("unknown name accepted")
	}
	// 17 paper heuristics + 4 "+" extensions + 4 passive + 2 proactive
	// + risk-averse remct + deadline + 2 batch disciplines.
	if len(AllNamesSorted()) != 31 {
		t.Fatalf("AllNamesSorted has %d entries", len(AllNamesSorted()))
	}
	for _, g := range GreedyNames() {
		if !seen[g] {
			t.Fatalf("greedy name %q missing from Names()", g)
		}
	}
	// The "+" extensions instantiate but stay out of the paper's Table 2 list.
	for _, plus := range []string{"mct+", "emct+", "lw+", "ud+"} {
		s, err := New(plus, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", plus, err)
		}
		if s.Name() != plus {
			t.Fatalf("scheduler for %q reports %q", plus, s.Name())
		}
		if seen[plus] {
			t.Fatalf("extension %q leaked into Names()", plus)
		}
	}
}

func TestRiskAverseDegeneratesToEMCT(t *testing.T) {
	// With lambda = 0 the risk-averse score equals EMCT's; with a large
	// lambda it must prefer a zero-variance processor over a faster but
	// volatile one when expectations are close.
	prm := params(5, 0, 1)
	noDetour := avail.MustMarkov3([3][3]float64{ // Pur=0: zero step variance
		{0.9, 0.0, 0.1},
		{0.1, 0.8, 0.1},
		{0.3, 0.3, 0.4},
	})
	volatileM := avail.MustMarkov3([3][3]float64{
		{0.90, 0.08, 0.02},
		{0.05, 0.90, 0.05},
		{0.05, 0.05, 0.90},
	})
	v := mkView(prm,
		sim.ProcView{W: 9, Model: volatileM},
		sim.ProcView{W: 10, Model: noDetour},
	)
	lam0 := NewRiskAverse(0)
	emct := NewEMCT(false)
	g0 := lam0.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{})
	ge := emct.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{})
	if g0 != ge {
		t.Fatalf("lambda=0 pick %d != emct pick %d", g0, ge)
	}
	// Strong risk aversion prefers the deterministic processor.
	lam := NewRiskAverse(50)
	if got := lam.Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}); got != 1 {
		t.Fatalf("risk-averse picked %d, want deterministic worker 1", got)
	}
	// Negative lambda clamps to 0.
	if NewRiskAverse(-3).Pick(v, []int{0, 1}, freshRound(2), sim.TaskInfo{}) != ge {
		t.Fatal("negative lambda not clamped")
	}
}

func TestAggressiveCorrectionDelays(t *testing.T) {
	// DelayScaled multiplies only communication remainders.
	pv := &sim.ProcView{ID: 0, W: 4, RemProgram: 5}
	if got := DelayScaled(pv, 3); got != 15 {
		t.Fatalf("DelayScaled idle = %d, want 15", got)
	}
	pv = &sim.ProcView{ID: 0, W: 4, HasComputing: true, ComputingRem: 6}
	if got := DelayScaled(pv, 3); got != 6 {
		t.Fatalf("DelayScaled computing = %d, want 6 (compute unscaled)", got)
	}
	pv = &sim.ProcView{
		ID: 0, W: 4, RemProgram: 2,
		HasIncoming: true, IncomingRem: 3,
		HasComputing: true, ComputingRem: 1,
	}
	// dataAt = 3*(2+3) = 15 > computingRem -> 15 + 4 = 19.
	if got := DelayScaled(pv, 3); got != 19 {
		t.Fatalf("DelayScaled pipelined = %d, want 19", got)
	}
	// Factor 1 must agree with the plain Delay.
	if DelayScaled(pv, 1) != Delay(pv) {
		t.Fatal("DelayScaled(1) != Delay")
	}
	// CTCorrected with factor 1 must agree with CT at raw Tdata.
	prm := params(5, 10, 3)
	if CTCorrected(pv, 2, prm, 1) != CT(pv, 2, prm.Tdata) {
		t.Fatal("CTCorrected(factor=1) != CT")
	}
	// Factor clamps below 1.
	if CTCorrected(pv, 2, prm, 0) != CT(pv, 2, prm.Tdata) {
		t.Fatal("CTCorrected(factor=0) not clamped")
	}
}

func BenchmarkEMCTPick(b *testing.B) {
	prm := params(10, 15, 3)
	v := &sim.View{Params: prm, Procs: make([]sim.ProcView, 20)}
	eligible := make([]int, 20)
	for i := range v.Procs {
		v.Procs[i] = sim.ProcView{ID: i, W: 1 + i%7, State: avail.Up, Model: reliableModel()}
		eligible[i] = i
	}
	v.FillAnalytics()
	s := NewEMCT(true)
	rs := freshRound(20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Pick(v, eligible, rs, sim.TaskInfo{})
	}
}

func TestLookupDoesNotInstantiate(t *testing.T) {
	// Lookup must resolve every registered name without constructing a
	// scheduler (sweep validation relies on this being cheap), and reject
	// unknown names with the same error New reports.
	for _, name := range Names() {
		if _, err := Lookup(name); err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
	}
	f, err := Lookup("emct")
	if err != nil {
		t.Fatal(err)
	}
	if s := f(nil); s.Name() != "emct" {
		t.Fatalf("factory built %q, want emct", s.Name())
	}
	if _, err := Lookup("definitely-not-registered"); err == nil {
		t.Fatal("unknown name resolved")
	}
}
