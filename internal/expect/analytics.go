package expect

import (
	"math"

	"repro/internal/avail"
)

// Analytics caches every per-model quantity the informed heuristics of
// Section 6 consume, so the per-decision hot path (one Pick evaluation per
// slot × task × eligible processor) reduces to pure arithmetic on constants.
// All fields are derived from an immutable Markov3, computed exactly as the
// corresponding free functions of this package compute them — scorers built
// on an Analytics are bit-identical to scorers calling the functions.
type Analytics struct {
	// PPlus is Lemma 1's P+ (see PPlus).
	PPlus float64
	// NegLogPPlus is −ln(P+), the LW score's per-slot cost; +Inf when
	// P+ = 0 (LW treats such processors as unusable).
	NegLogPPlus float64
	// UpStep is E(up) of Theorem 2 (see ExpectedUpStep).
	UpStep float64
	// VarUpStep is Var(step) of the conditioned up-step (see VarianceUpStep).
	VarUpStep float64
	// PiU, PiR, PiD are the stationary probabilities.
	PiU, PiR, PiD float64

	// UD's approximate survival score (Section 6.3.3) decomposes as
	// −ln P_UD(k) = NegLog1mPud − (k−2)·LogPerSlot. udScorable is false when
	// the original formula degenerates (π_u+π_r ≤ 0, P(u,d) ≥ 1 or a
	// non-positive per-slot survival), in which case the score is +Inf.
	udScorable  bool
	NegLog1mPud float64
	LogPerSlot  float64
}

// NewAnalytics derives the cached quantities from a model. Prefer Of, which
// interns the result on the model itself.
func NewAnalytics(m *avail.Markov3) *Analytics {
	a := &Analytics{
		PPlus:     PPlus(m),
		UpStep:    ExpectedUpStep(m),
		VarUpStep: VarianceUpStep(m),
	}
	a.PiU, a.PiR, a.PiD = m.Stationary()
	if a.PPlus > 0 {
		a.NegLogPPlus = -math.Log(a.PPlus)
	} else {
		a.NegLogPPlus = math.Inf(1)
	}
	pud := m.P(avail.Up, avail.Down)
	prd := m.P(avail.Reclaimed, avail.Down)
	if a.PiU+a.PiR > 0 && pud < 1 {
		perSlot := 1 - (pud*a.PiU+prd*a.PiR)/(a.PiU+a.PiR)
		if perSlot > 0 {
			a.udScorable = true
			a.NegLog1mPud = -math.Log(1 - pud)
			a.LogPerSlot = math.Log(perSlot)
		}
	}
	return a
}

// Of returns the model's interned Analytics, computing and storing it on
// first use. Safe for concurrent callers: a race computes the same value
// twice and interns one of the two identical results.
func Of(m *avail.Markov3) *Analytics {
	if v := m.Memo(); v != nil {
		if a, ok := v.(*Analytics); ok {
			return a
		}
	}
	a := NewAnalytics(m)
	m.SetMemo(a)
	return a
}

// ExpectedSlots is Theorem 2's E(W) on the cached up-step (see the free
// function ExpectedSlots).
func (a *Analytics) ExpectedSlots(w float64) float64 {
	if w <= 1 {
		return w
	}
	return 1 + (w-1)*a.UpStep
}

// StdDevSlots is the conditioned completion-time standard deviation,
// sqrt((W−1)·Var(step)), on the cached up-step variance.
func (a *Analytics) StdDevSlots(w float64) float64 {
	if w <= 1 {
		return 0
	}
	return math.Sqrt((w - 1) * a.VarUpStep)
}

// UDScore is −ln P_UD(k) with the paper's Section 6.3.3 approximation, for a
// conditioned horizon k (typically E(CT)); +Inf when the model degenerates.
func (a *Analytics) UDScore(k float64) float64 {
	if k <= 1 {
		return 0 // P_UD = 1
	}
	if !a.udScorable {
		return math.Inf(1)
	}
	return a.NegLog1mPud - (k-2)*a.LogPerSlot
}
