package minheap

import (
	"math"
	"math/rand"
	"testing"
)

// TestLessIsLexicographic checks the borrow-chain comparison against the
// (Hi, Lo) lexicographic order, on every pair of words at the edges of the
// unsigned range (where a missed or spurious borrow shows) and on random
// keys.
func TestLessIsLexicographic(t *testing.T) {
	ref := func(a, b Key) bool { return a.Hi < b.Hi || (a.Hi == b.Hi && a.Lo < b.Lo) }
	words := []uint64{0, 1, 2, 1<<63 - 1, 1 << 63, 1<<63 + 1, math.MaxUint64 - 1, math.MaxUint64}
	var keys []Key
	for _, hi := range words {
		for _, lo := range words {
			keys = append(keys, Key{hi, lo})
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		keys = append(keys, Key{r.Uint64() >> uint(r.Intn(64)), r.Uint64() >> uint(r.Intn(64))})
	}
	for _, a := range keys {
		for _, b := range keys {
			if got, want := Less(a, b), ref(a, b); got != want {
				t.Fatalf("Less(%#x, %#x) = %v, want %v", a, b, got, want)
			}
		}
	}
}
