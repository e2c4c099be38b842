package sim

// Stats aggregates resource-usage counters over a run. They feed the
// utilization and waste analyses of the experiment reports, and several
// engine invariants are asserted against them in tests.
type Stats struct {
	// ChannelSlots is the total number of channel-slots the master spent
	// transferring (program + data, including work later wasted).
	ChannelSlots int64
	// ProgramSlots is the subset of ChannelSlots spent on program transfers.
	ProgramSlots int64
	// ComputeSlots is the total number of UP slots workers spent computing.
	ComputeSlots int64
	// WastedComputeSlots counts compute slots of copies that were later
	// crashed or cancelled.
	WastedComputeSlots int64
	// WastedDataSlots counts data-transfer slots of copies that never
	// completed (crashes, cancellations).
	WastedDataSlots int64
	// WastedProgramSlots counts program slots lost to crashes.
	WastedProgramSlots int64
	// Crashes counts transitions into DOWN observed on workers.
	Crashes int
	// CopiesStarted counts task copies whose transfer chain began.
	CopiesStarted int
	// ReplicasStarted is the subset of CopiesStarted with replica index > 0.
	ReplicasStarted int
	// TasksCompleted counts distinct task completions (m per iteration).
	TasksCompleted int
	// PeakTransfers is the maximum number of simultaneous transfers in any
	// slot (must never exceed ncom).
	PeakTransfers int
}

// Result is the outcome of one simulation run.
type Result struct {
	// Completed reports whether all iterations finished within the slot cap.
	Completed bool
	// Makespan is the number of slots consumed. When Completed is false it
	// equals the cap and the run is censored.
	Makespan int
	// IterationEnds[i] is the slot count at which iteration i completed.
	IterationEnds []int
	// IterationTasks[i] is the number of tasks iteration i ran (including,
	// for a censored run, the in-progress iteration). Only moldable runs —
	// a Config with an AllocationPolicy — record it; under the fixed model
	// it is nil and every iteration runs Params.M tasks.
	IterationTasks []int
	// Stats carries the resource counters.
	Stats Stats
}

// EventKind labels engine events for tracing and tests.
type EventKind int

// Event kinds emitted by the engine.
const (
	// EvProgramStart: a worker began receiving the program.
	EvProgramStart EventKind = iota
	// EvDataStart: a worker began receiving a task's data.
	EvDataStart
	// EvComputeStart: a worker began computing a task copy.
	EvComputeStart
	// EvTaskComplete: a task copy finished and the task is done.
	EvTaskComplete
	// EvCopyCancelled: a live copy was cancelled (another copy of its task
	// finished, or a proactive scheduler cancelled it).
	EvCopyCancelled
	// EvCrash: a worker transitioned into DOWN, losing its state.
	EvCrash
	// EvIterationDone: all m tasks of an iteration completed.
	EvIterationDone
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EvProgramStart:
		return "program-start"
	case EvDataStart:
		return "data-start"
	case EvComputeStart:
		return "compute-start"
	case EvTaskComplete:
		return "task-complete"
	case EvCopyCancelled:
		return "copy-cancelled"
	case EvCrash:
		return "crash"
	case EvIterationDone:
		return "iteration-done"
	default:
		return "unknown"
	}
}

// Event is a single engine occurrence, for verbose timelines and tests.
type Event struct {
	// Slot is the time slot of the event.
	Slot int
	// Kind labels the occurrence.
	Kind EventKind
	// Worker is the processor ID (-1 when not applicable).
	Worker int
	// Task is the task index (-1 when not applicable).
	Task int
	// Replica is the copy number (0 original; -1 when not applicable).
	Replica int
	// Iteration is the iteration number at the time of the event.
	Iteration int
}

// SlotReport is handed to the per-slot observer for invariant checking and
// progress displays.
type SlotReport struct {
	// Slot is the slot that just executed.
	Slot int
	// Iteration is the current iteration index (0-based).
	Iteration int
	// TransfersUsed is the number of channels active this slot.
	TransfersUsed int
	// UpWorkers is the number of workers UP this slot.
	UpWorkers int
	// ComputingWorkers is the number of workers that advanced a computation.
	ComputingWorkers int
	// TasksCompleted is the cumulative number of completed tasks.
	TasksCompleted int
}
