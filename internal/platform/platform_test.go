package platform

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/rng"
)

func testModel() *avail.Markov3 {
	return avail.MustMarkov3([3][3]float64{
		{0.95, 0.03, 0.02},
		{0.04, 0.90, 0.06},
		{0.05, 0.05, 0.90},
	})
}

func TestProcessorValidate(t *testing.T) {
	ok := &Processor{ID: 0, W: 3, Avail: testModel()}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid processor rejected: %v", err)
	}
	if err := (&Processor{ID: 0, W: 0, Avail: testModel()}).Validate(); err == nil {
		t.Fatal("zero speed accepted")
	}
	if err := (&Processor{ID: 0, W: 1}).Validate(); err == nil {
		t.Fatal("missing model accepted")
	}
}

func TestPlatformValidate(t *testing.T) {
	if err := (&Platform{}).Validate(); err == nil {
		t.Fatal("empty platform accepted")
	}
	pl := Homogeneous(3, 2, testModel())
	if err := pl.Validate(); err != nil {
		t.Fatalf("homogeneous platform rejected: %v", err)
	}
	// Wrong ID ordering must be caught.
	pl.Processors[1].ID = 5
	if err := pl.Validate(); err == nil {
		t.Fatal("mis-indexed processor accepted")
	}
	pl.Processors[1] = nil
	if err := pl.Validate(); err == nil {
		t.Fatal("nil processor accepted")
	}
}

func TestParamsValidate(t *testing.T) {
	base := Params{M: 10, Iterations: 10, Ncom: 5, Tprog: 5, Tdata: 1, MaxReplicas: 2}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []Params{
		{M: 0, Iterations: 1, Ncom: 1},
		{M: 1, Iterations: 0, Ncom: 1},
		{M: 1, Iterations: 1, Ncom: 0},
		{M: 1, Iterations: 1, Ncom: 1, Tprog: -1},
		{M: 1, Iterations: 1, Ncom: 1, Tdata: -2},
		{M: 1, Iterations: 1, Ncom: 1, MaxReplicas: -1},
		{M: 1, Iterations: 1, Ncom: 1, MaxSlots: -7},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestEffectiveMaxSlots(t *testing.T) {
	p := Params{}
	if got := p.EffectiveMaxSlots(); got != DefaultMaxSlots {
		t.Fatalf("default MaxSlots = %d", got)
	}
	p.MaxSlots = 500
	if got := p.EffectiveMaxSlots(); got != 500 {
		t.Fatalf("explicit MaxSlots = %d", got)
	}
}

func TestRandomPlatformRespectsRanges(t *testing.T) {
	r := rng.New(51)
	for trial := 0; trial < 20; trial++ {
		wmin := 1 + r.Intn(10)
		pl := RandomPlatform(r, 20, wmin)
		if err := pl.Validate(); err != nil {
			t.Fatal(err)
		}
		if pl.P() != 20 {
			t.Fatalf("P() = %d", pl.P())
		}
		for _, proc := range pl.Processors {
			if proc.W < wmin || proc.W > 10*wmin {
				t.Fatalf("w=%d outside [%d, %d]", proc.W, wmin, 10*wmin)
			}
		}
	}
}

func TestRandomPlatformDeterministic(t *testing.T) {
	a := RandomPlatform(rng.New(52), 10, 3)
	b := RandomPlatform(rng.New(52), 10, 3)
	for i := range a.Processors {
		if a.Processors[i].W != b.Processors[i].W {
			t.Fatal("same seed produced different speeds")
		}
		if a.Processors[i].Avail.Matrix() != b.Processors[i].Avail.Matrix() {
			t.Fatal("same seed produced different models")
		}
	}
}
