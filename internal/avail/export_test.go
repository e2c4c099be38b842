package avail

// StepMarkov3 exposes the per-slot transition of Markov3Process.Next with
// an explicit uniform draw, so tests can hit the boundaries of [0,1).
var StepMarkov3 = (*Markov3).step
