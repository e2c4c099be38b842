package sim

// MutateSkipDirty suppresses the engine's markDirty for the given worker —
// a deliberately broken invalidation site, used to prove the slow-check
// oracle actually detects missed dirty marks (stale views / stale
// ProcEpochs). The mutation survives Runner reuse; pass -1 to restore
// correct behavior. Test-only.
func (r *Runner) MutateSkipDirty(worker int) { r.e.mutateSkipDirty = worker + 1 }

// MutateFreeLeft makes the scheduling round spend its free-worker budget on
// every first pick of a worker, occupied or not — a deliberately broken
// round stop, used to prove the slow check (verifyRoundStop) detects it.
// The mutation survives Runner reuse. Test-only.
func (r *Runner) MutateFreeLeft(on bool) { r.e.mutateFreeLeft = on }

// MutateChannelBudget makes the scheduling round take its channel-budget
// stop one bindable pick early — a deliberately broken round stop, used to
// prove the slow check (verifyRoundStop) detects it. The mutation survives
// Runner reuse. Test-only.
func (r *Runner) MutateChannelBudget(on bool) { r.e.mutateChannelBudget = on }

// EpochBlock is how many epochs an engine reserves from the shared counter
// at once.
const EpochBlock = epochBlock
