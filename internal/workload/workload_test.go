package workload

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
)

func TestPaperGridShape(t *testing.T) {
	grid := PaperGrid()
	if len(grid) != 120 {
		t.Fatalf("grid has %d cells, want 120 (4x3x10)", len(grid))
	}
	seen := map[Cell]bool{}
	for _, c := range grid {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
		switch c.N {
		case 5, 10, 20, 40:
		default:
			t.Fatalf("bad n %d", c.N)
		}
		switch c.Ncom {
		case 5, 10, 20:
		default:
			t.Fatalf("bad ncom %d", c.Ncom)
		}
		if c.Wmin < 1 || c.Wmin > 10 {
			t.Fatalf("bad wmin %d", c.Wmin)
		}
	}
}

func TestGenerateFollowsPaperRules(t *testing.T) {
	r := rng.New(81)
	cell := Cell{N: 20, Ncom: 10, Wmin: 3}
	scn := Generate(r, cell, Options{})
	if err := scn.Platform.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := scn.Params.Validate(); err != nil {
		t.Fatal(err)
	}
	if scn.Platform.P() != 20 {
		t.Fatalf("P = %d, want 20", scn.Platform.P())
	}
	if scn.Params.M != 20 || scn.Params.Ncom != 10 {
		t.Fatalf("params %+v", scn.Params)
	}
	if scn.Params.Tdata != 3 || scn.Params.Tprog != 15 {
		t.Fatalf("Tdata=%d Tprog=%d, want 3/15", scn.Params.Tdata, scn.Params.Tprog)
	}
	if scn.Params.Iterations != 10 || scn.Params.MaxReplicas != 2 {
		t.Fatalf("defaults wrong: %+v", scn.Params)
	}
	for _, p := range scn.Platform.Processors {
		if p.W < 3 || p.W > 30 {
			t.Fatalf("speed %d outside [wmin, 10*wmin]", p.W)
		}
	}
}

func TestGenerateContentionScale(t *testing.T) {
	r := rng.New(82)
	scn := Generate(r, ContentionCell(), Options{CommScale: 5})
	if scn.Params.Tdata != 5 || scn.Params.Tprog != 25 {
		t.Fatalf("contention x5: Tdata=%d Tprog=%d", scn.Params.Tdata, scn.Params.Tprog)
	}
	scn10 := Generate(r, ContentionCell(), Options{CommScale: 10})
	if scn10.Params.Tdata != 10 || scn10.Params.Tprog != 50 {
		t.Fatalf("contention x10: Tdata=%d Tprog=%d", scn10.Params.Tdata, scn10.Params.Tprog)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cell := Cell{N: 5, Ncom: 5, Wmin: 2}
	a := Generate(rng.New(83), cell, Options{})
	b := Generate(rng.New(83), cell, Options{})
	for i := range a.Platform.Processors {
		if a.Platform.Processors[i].W != b.Platform.Processors[i].W {
			t.Fatal("same seed produced different platforms")
		}
	}
}

func TestTrialReproducibleAndIndependent(t *testing.T) {
	scn := Generate(rng.New(84), Cell{N: 5, Ncom: 5, Wmin: 1}, Options{P: 4})
	rec := func(seed uint64) []string {
		procs := scn.Trial(rng.New(seed))
		out := make([]string, len(procs))
		for i, p := range procs {
			out[i] = avail.Record(p, 200).String()
		}
		return out
	}
	a1, a2, b := rec(1), rec(1), rec(2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same trial seed produced different trajectories")
		}
	}
	same := 0
	for i := range a1 {
		if a1[i] == b[i] {
			same++
		}
	}
	if same == len(a1) {
		t.Fatal("different trial seeds produced identical trajectories")
	}
}

// TestTrialPoolMatchesTrial pins the pooling contract: a pooled trial must
// replay the exact trajectories the allocating Trial produces, across
// repeated reuse and across scenarios of different platform sizes.
func TestTrialPoolMatchesTrial(t *testing.T) {
	small := Generate(rng.New(90), Cell{N: 5, Ncom: 5, Wmin: 1}, Options{P: 3})
	large := Generate(rng.New(91), Cell{N: 10, Ncom: 5, Wmin: 2}, Options{P: 9})
	var pool TrialPool
	for trial, scn := range []*Scenario{small, large, small, large, large} {
		seed := uint64(100 + trial)
		want := scn.Trial(rng.New(seed))
		got := pool.Trial(scn, rng.New(seed))
		if len(got) != scn.Platform.P() {
			t.Fatalf("trial %d: %d procs for %d processors", trial, len(got), scn.Platform.P())
		}
		for i := range want {
			w := avail.Record(want[i], 300).String()
			g := avail.Record(got[i], 300).String()
			if w != g {
				t.Fatalf("trial %d processor %d: pooled trajectory diverged\nwant %s\ngot  %s", trial, i, w, g)
			}
		}
	}
}
