// Package rng provides deterministic, splittable pseudo-random number
// generation and the distribution samplers used throughout the simulator.
//
// All experiments in this repository must be exactly reproducible from a
// single integer seed, across machines and Go releases. The standard
// library's math/rand does not guarantee a stable stream across Go versions
// for every constructor, so we carry our own implementation of the PCG-XSL-RR
// 128/64 generator (the same family Go 1.22+ adopted) together with a
// SplitMix64 seed expander for deriving independent sub-streams.
package rng

import "math/bits"

// PCG is a PCG-XSL-RR 128/64 pseudo-random generator. The zero value is not
// ready for use; construct instances with New.
//
// PCG is not safe for concurrent use; derive one generator per goroutine with
// Split.
type PCG struct {
	hi, lo uint64
}

// pcg multiplier (128-bit), from the PCG reference implementation.
const (
	mulHi = 2549297995355413924
	mulLo = 4865540595714422341
	incHi = 6364136223846793005
	incLo = 1442695040888963407
)

// New returns a generator seeded from the given 64-bit seed. Two generators
// built from the same seed produce identical streams.
func New(seed uint64) *PCG {
	p := &PCG{}
	p.Reseed(seed)
	return p
}

// Reseed resets p in place to the exact state New(seed) would construct,
// without allocating. Tight loops that need one fresh generator per
// iteration (per-trial streams in sweeps) reseed a pooled PCG instead of
// allocating a new one.
func (p *PCG) Reseed(seed uint64) {
	sm := SplitMix64(seed)
	p.hi, p.lo = sm.Next(), sm.Next()
	// Advance once so that nearby seeds diverge immediately.
	p.Uint64()
}

// State reports the current 128-bit internal state.
func (p *PCG) State() (hi, lo uint64) { return p.hi, p.lo }

// Uint64 returns a uniformly distributed 64-bit value and advances the state.
func (p *PCG) Uint64() uint64 {
	// state = state * mul + inc (128-bit arithmetic)
	carryLo, carry := bits.Add64(mulLo*p.lo, incLo, 0)
	hi := mulHi*p.lo + mulLo*p.hi + mulHiLoUpper(p.lo)
	hi, _ = bits.Add64(hi, incHi, carry)
	p.lo, p.hi = carryLo, hi

	// XSL-RR output function.
	return bits.RotateLeft64(p.hi^p.lo, -int(p.hi>>58))
}

// mulHiLoUpper returns the upper 64 bits of mulLo * lo.
func mulHiLoUpper(lo uint64) uint64 {
	hi, _ := bits.Mul64(mulLo, lo)
	return hi
}

// Split derives an independent generator from the current one. The parent
// stream advances; the child is seeded from fresh parent output, so repeated
// Split calls yield distinct, reproducible children.
func (p *PCG) Split() *PCG {
	child := &PCG{}
	p.SplitInto(child)
	return child
}

// SplitInto is Split into caller-owned storage: child receives the exact
// state a Split call would have produced (the parent advances identically),
// but no allocation occurs. p and child must not alias.
func (p *PCG) SplitInto(child *PCG) {
	child.hi = p.Uint64()
	child.lo = p.Uint64() | 1
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (p *PCG) Float64() float64 {
	return float64(p.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (p *PCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(p.boundedUint64(uint64(n)))
}

// boundedUint64 returns a uniform value in [0, bound) using Lemire's
// multiply-shift rejection method (unbiased).
func (p *PCG) boundedUint64(bound uint64) uint64 {
	hi, lo := bits.Mul64(p.Uint64(), bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			hi, lo = bits.Mul64(p.Uint64(), bound)
		}
	}
	return hi
}

// UniformRange returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (p *PCG) UniformRange(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: UniformRange with hi < lo")
	}
	return lo + (hi-lo)*p.Float64()
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (p *PCG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + p.Intn(hi-lo+1)
}

// Perm returns a random permutation of [0, n) (Fisher-Yates).
func (p *PCG) Perm(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := p.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// SplitMix64 is a tiny seed-expansion generator (Vigna). It is used to turn
// one user-facing seed into the wider state PCG needs, and in tests.
type SplitMix64 uint64

// Next advances the SplitMix64 state and returns the next value.
func (s *SplitMix64) Next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
