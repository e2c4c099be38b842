package sim

import (
	"fmt"
	"strings"
)

// Mode selects the engine's time base.
type Mode uint8

const (
	// ModeSlot executes the simulation one slot at a time on each
	// processor's per-slot (Next) trajectory — the paper's literal model
	// and the reference semantics. The engine replays that trajectory as
	// one merged transition log (avail.Tape, recorded per slot), so states
	// cost O(changes) per slot, but no slot is skipped. The zero value, so
	// configurations that never mention a mode keep their exact historical
	// behaviour.
	ModeSlot Mode = iota
	// ModeEvent samples availability at sojourn granularity (one draw per
	// state run instead of one per slot) and skips quiet spans — runs of
	// slots in which no scheduler-visible state changes and no scheduler
	// decision could bind work. Results are distribution-identical to slot
	// mode but not bit-identical for Markov platforms, because the RNG is
	// consumed per transition rather than per slot; on recorded vectors
	// with deterministic schedulers the two modes match exactly.
	ModeEvent
)

// modeNames lists the valid mode names, indexed by Mode.
var modeNames = []string{"slot", "event"}

// ModeNames returns the valid mode names in declaration order.
func ModeNames() []string { return append([]string(nil), modeNames...) }

// String renders the mode's canonical name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// valid reports whether m is a defined mode.
func (m Mode) valid() bool { return int(m) < len(modeNames) }

// ParseMode parses a mode name, failing fast with the list of valid names —
// the same contract CLI flag validation uses for experiment names.
func ParseMode(s string) (Mode, error) {
	for i, name := range modeNames {
		if s == name {
			return Mode(i), nil
		}
	}
	return 0, fmt.Errorf("sim: unknown mode %q (valid modes: %s)",
		s, strings.Join(modeNames, ", "))
}
