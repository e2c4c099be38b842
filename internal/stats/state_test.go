package stats

import (
	"math"
	"reflect"
	"testing"
)

// instanceSeq builds a deterministic stream of instances with awkward float
// content (sums that do not round-trip through short decimal forms).
func instanceSeq(n int) []*InstanceResult {
	out := make([]*InstanceResult, n)
	for i := 0; i < n; i++ {
		out[i] = &InstanceResult{
			Makespans: map[string]int{
				"a": 100 + (i*7)%13,
				"b": 100 + (i*11)%17,
				"c": 100,
			},
			Censored: map[string]bool{"c": i%5 == 0},
		}
	}
	return out
}

// TestAggregatorStateResumeBitIdentical is the checkpoint/resume core
// property at the stats layer: snapshot after a prefix, restore, replay the
// suffix — every row (float sum bits included) must equal an uninterrupted
// aggregation. Floating-point addition is order-sensitive, so this only
// holds because State carries the exact running sum bits.
func TestAggregatorStateResumeBitIdentical(t *testing.T) {
	seq := instanceSeq(57)
	for _, cut := range []int{0, 1, 23, 56, 57} {
		full := NewAggregator()
		for _, ir := range seq {
			full.Add(ir)
		}

		prefix := NewAggregator()
		for _, ir := range seq[:cut] {
			prefix.Add(ir)
		}
		resumed := FromState(prefix.State())
		for _, ir := range seq[cut:] {
			resumed.Add(ir)
		}

		if full.Instances() != resumed.Instances() {
			t.Fatalf("cut=%d: instances %d != %d", cut, resumed.Instances(), full.Instances())
		}
		fr, rr := full.Rows(), resumed.Rows()
		if !reflect.DeepEqual(fr, rr) {
			t.Fatalf("cut=%d: rows diverged\nfull:    %+v\nresumed: %+v", cut, fr, rr)
		}
		// Rows() divides; compare the raw sums too, at bit granularity.
		fs, rs := full.State(), resumed.State()
		if !reflect.DeepEqual(fs, rs) {
			t.Fatalf("cut=%d: states diverged\nfull:    %+v\nresumed: %+v", cut, fs, rs)
		}
	}
}

// TestAggregatorStateIsDeepCopy guards against a snapshot aliasing live
// accumulators: Adds after State must not change the snapshot.
func TestAggregatorStateIsDeepCopy(t *testing.T) {
	a := NewAggregator()
	seq := instanceSeq(5)
	for _, ir := range seq {
		a.Add(ir)
	}
	st := a.State()
	before := append([]AccumState(nil), st.Accums...)
	a.Add(seq[0])
	if !reflect.DeepEqual(st.Accums, before) {
		t.Fatal("State snapshot changed after a later Add")
	}
}

// TestAggregatorStateSorted pins the deterministic ordering the checkpoint
// encoding relies on.
func TestAggregatorStateSorted(t *testing.T) {
	a := NewAggregator()
	for _, ir := range instanceSeq(3) {
		a.Add(ir)
	}
	st := a.State()
	for i := 1; i < len(st.Accums); i++ {
		if st.Accums[i-1].Name >= st.Accums[i].Name {
			t.Fatalf("accums not strictly sorted by name: %+v", st.Accums)
		}
	}
}

// TestFromStateRoundTripsSumBits spot-checks that an irrational-ish sum
// survives the bits round trip exactly.
func TestFromStateRoundTripsSumBits(t *testing.T) {
	a := NewAggregator()
	a.Add(&InstanceResult{Makespans: map[string]int{"x": 103, "y": 100}, Censored: map[string]bool{}})
	a.Add(&InstanceResult{Makespans: map[string]int{"x": 107, "y": 100}, Censored: map[string]bool{}})
	st := a.State()
	b := FromState(st)
	av, _ := a.AvgDFB("x")
	bv, _ := b.AvgDFB("x")
	if math.Float64bits(av) != math.Float64bits(bv) {
		t.Fatalf("restored avg dfb drifted: %x != %x", math.Float64bits(av), math.Float64bits(bv))
	}
}
