package main

import (
	"fmt"
	"os"

	volatile "repro"
	"repro/internal/avail"
	"repro/internal/report"
	"repro/internal/rng"
)

// ganttRun executes one trial with recorded availability and renders a
// per-worker timeline: what every processor was doing in every slot.
//
// Cell characters:
//
//	.  UP, idle            :  RECLAIMED, idle       X  DOWN
//	P  receiving program   D  receiving task data   C  computing
//	B  computing while prefetching the next task's data
//	p/d/c  the same activities suspended by a RECLAIMED interruption
func ganttRun(scn *volatile.Scenario, heuristic string, trialSeed uint64, horizon int) error {
	// Record the availability realization so it can be both replayed and
	// displayed.
	p := scn.Processors()
	vecRng := rng.New(trialSeed)
	vectors := make([]avail.Vector, p)
	specs := make([]string, p)
	for i := 0; i < p; i++ {
		vectors[i] = avail.Record(scn.ProcessorModel(i).NewProcess(vecRng.Split(), avail.Up), horizon)
		specs[i] = vectors[i].String()
	}

	// Phase tracking per worker, reconstructed from the event stream.
	type phase struct{ prog, data, compute bool }
	phases := make([]phase, p)
	grid := make([][]byte, p)
	for i := range grid {
		grid[i] = make([]byte, 0, 256)
	}
	slotDone := -1
	fill := func(upTo int) {
		// Renders slots (slotDone, upTo] using current phases; events of
		// slot s are applied before rendering slot s, which is why the
		// engine's in-slot event order matters.
		for s := slotDone + 1; s <= upTo; s++ {
			for q := 0; q < p; q++ {
				st := vectors[q][min(s, len(vectors[q])-1)]
				var ch byte
				ph := phases[q]
				switch {
				case st == avail.Down:
					ch = 'X'
				case ph.compute && ph.data:
					ch = 'B'
				case ph.compute:
					ch = 'C'
				case ph.data:
					ch = 'D'
				case ph.prog:
					ch = 'P'
				case st == avail.Reclaimed:
					ch = ':'
				default:
					ch = '.'
				}
				if st == avail.Reclaimed && ch >= 'A' && ch <= 'Z' {
					ch += 'a' - 'A' // suspended activity
				}
				grid[q] = append(grid[q], ch)
			}
		}
		if upTo > slotDone {
			slotDone = upTo
		}
	}

	traced, err := scn.Traced(specs)
	if err != nil {
		return err
	}
	events := make([]volatile.Event, 0, 1024)
	res2, err := traced.RunWithHooks(heuristic, trialSeed, nil, func(ev volatile.Event) {
		events = append(events, ev)
	})
	if err != nil {
		return err
	}
	for _, ev := range events {
		fill(ev.Slot - 1)
		q := ev.Worker
		if q < 0 || q >= p {
			continue
		}
		switch ev.Kind {
		case volatile.EvProgramStart:
			phases[q].prog = true
		case volatile.EvDataStart:
			phases[q].prog = false
			phases[q].data = true
		case volatile.EvComputeStart:
			phases[q].compute = true
			phases[q].data = false
		case volatile.EvTaskComplete:
			phases[q].compute = false
		case volatile.EvCopyCancelled, volatile.EvCrash:
			phases[q] = phase{}
		}
	}
	fill(res2.Makespan - 1)

	rows := make([]report.GanttRow, p)
	for q := 0; q < p; q++ {
		rows[q] = report.GanttRow{
			Label: fmt.Sprintf("P%-2d w=%-3d", q, scn.ProcessorSpeed(q)),
			Cells: grid[q][:res2.Makespan],
		}
	}
	fmt.Printf("%s: makespan %d slots (completed=%v)\n\n", heuristic, res2.Makespan, res2.Completed)
	return report.Gantt(os.Stdout, rows, 100,
		"P/D/C=program/data/compute, B=compute+prefetch, lowercase=suspended, .=idle up, :=reclaimed, X=down")
}
