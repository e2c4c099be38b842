package sim

import (
	"testing"

	"repro/internal/avail"
	"repro/internal/platform"
)

func testWorker(w int) *workerState {
	m := avail.MustMarkov3([3][3]float64{
		{0.95, 0.03, 0.02},
		{0.04, 0.90, 0.06},
		{0.05, 0.05, 0.90},
	})
	return &workerState{
		proc: &platform.Processor{ID: 0, W: w, Avail: m},
	}
}

func TestWorkerProgramThenData(t *testing.T) {
	w := testWorker(2)
	w.incoming = &copyState{task: 0}
	const tprog, tdata = 2, 3

	if !w.needsTransfer(tprog) {
		t.Fatal("fresh worker with bound task must need transfer")
	}
	// Two slots of program.
	w.advanceTransfer(tprog, tdata)
	if w.hasProgram(tprog) || w.progRecv != 1 {
		t.Fatalf("after 1 slot: progRecv=%d", w.progRecv)
	}
	w.advanceTransfer(tprog, tdata)
	if !w.hasProgram(tprog) {
		t.Fatal("program should be complete after Tprog slots")
	}
	if w.incoming.dataRecv != 0 {
		t.Fatal("data must not advance while program transfers")
	}
	// Three slots of data.
	for i := 0; i < 3; i++ {
		if w.incoming.dataDone {
			t.Fatalf("dataDone early at %d", i)
		}
		w.advanceTransfer(tprog, tdata)
	}
	if !w.incoming.dataDone {
		t.Fatal("data should be done after Tdata slots")
	}
	if !w.needsTransfer(tprog) == false && w.needsTransfer(tprog) {
		t.Fatal("no further transfer needed")
	}
}

func TestWorkerZeroTdata(t *testing.T) {
	w := testWorker(1)
	w.incoming = &copyState{task: 0}
	const tprog, tdata = 1, 0
	w.advanceTransfer(tprog, tdata)
	if !w.hasProgram(tprog) || !w.incoming.dataDone {
		t.Fatal("with Tdata=0 data completes with the last program slot")
	}
}

func TestWorkerPromote(t *testing.T) {
	w := testWorker(2)
	w.incoming = &copyState{task: 3, dataDone: true}
	if !w.promote() {
		t.Fatal("promotion should happen")
	}
	if w.computing == nil || w.computing.task != 3 || w.incoming != nil {
		t.Fatal("promotion wrong")
	}
	// No promotion when computing busy.
	w.incoming = &copyState{task: 4, dataDone: true}
	if w.promote() {
		t.Fatal("promotion with busy computing slot")
	}
	// No promotion when data incomplete.
	w.computing = nil
	w.incoming.dataDone = false
	if w.promote() {
		t.Fatal("promotion with incomplete data")
	}
}

func TestWorkerBusy(t *testing.T) {
	w := testWorker(1)
	if w.busy() {
		t.Fatal("fresh worker busy")
	}
	w.incoming = &copyState{}
	if !w.busy() {
		t.Fatal("worker with incoming not busy")
	}
}
