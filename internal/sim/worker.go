package sim

import (
	"repro/internal/expect"
	"repro/internal/platform"
)

// copyState is one live copy (original or replica) of a task on a worker.
type copyState struct {
	// task is the task index within the current iteration.
	task int
	// replica is the copy number: 0 for the original, 1.. for replicas.
	replica int
	// dataRecv counts the data slots already received.
	dataRecv int
	// dataDone is set once the full Tdata slots have been received.
	dataDone bool
	// computeDone counts the UP compute slots already spent.
	computeDone int
}

// workerState is the dynamic state of one worker processor. The
// availability state itself lives in the engine's struct-of-arrays
// e.states (one byte per worker): the hot loops — slate building, the
// event clock's frozen-platform scan, the slow-check recounts — read
// only the state, and packing those into a dense array keeps the scans
// cache-resident at volunteer-grid platform sizes.
type workerState struct {
	proc *platform.Processor
	// analytics is the interned per-model cache the scheduler view exposes.
	analytics *expect.Analytics
	// progRecv counts program slots held; == Tprog means the full program.
	// Only a crash (the engine's applyState) clears it.
	progRecv int
	// computing is the copy being computed (data complete), if any.
	computing *copyState
	// incoming is the copy whose data is bound to this worker (receiving or
	// suspended), if any. Its transfer chain is: remaining program first,
	// then the task data. Both slots are filled by the engine's bindCopy and
	// promote and emptied by completion or by dropCopies, the single removal
	// path for crashes and cancellations.
	incoming *copyState
}

// hasProgram reports whether the full program is held.
func (w *workerState) hasProgram(tprog int) bool { return w.progRecv >= tprog }

// remProgram is the number of program slots still needed.
func (w *workerState) remProgram(tprog int) int { return tprog - w.progRecv }

// busy reports whether any begun work is attached to the worker.
func (w *workerState) busy() bool { return w.computing != nil || w.incoming != nil }

// needsTransfer reports whether the worker's bound chain still needs channel
// slots (program remainder or incoming data).
func (w *workerState) needsTransfer(tprog int) bool {
	return w.incoming != nil && (!w.hasProgram(tprog) || !w.incoming.dataDone)
}

// advanceTransfer consumes one granted channel slot: program first, then the
// incoming task's data. It must only be called when needsTransfer is true
// and the worker is UP.
func (w *workerState) advanceTransfer(tprog, tdata int) {
	if !w.hasProgram(tprog) {
		w.progRecv++
	} else {
		w.incoming.dataRecv++
	}
	if w.hasProgram(tprog) && w.incoming.dataRecv >= tdata {
		w.incoming.dataDone = true
	}
}

// promote moves a data-complete incoming copy into the (free) computing
// slot. It returns true when a promotion happened.
func (w *workerState) promote() bool {
	if w.computing == nil && w.incoming != nil && w.incoming.dataDone {
		w.computing = w.incoming
		w.incoming = nil
		return true
	}
	return false
}
