package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzTraceRead is the ingestion robustness guard: Read confronts
// arbitrary (hostile) input and must either return a valid Set or an
// error — never panic, and never allocate proportionally to dimensions the
// header merely claims. Whatever parses must survive a Write→Read round
// trip unchanged, since a trace sweep's file source depends on that identity.
//
// The seed corpus covers the grammar's edges: a well-formed set, header
// corruption, dimension lies (including the billion-vector over-allocation
// probe), truncation, bad state letters, and length mismatches. CI runs
// these seeds on every `go test` (fuzz targets execute their corpus as
// unit tests unless -fuzz starts mutation).
func FuzzTraceRead(f *testing.F) {
	seeds := []string{
		"volatrace 2 3\nuud\nrdu\n",                // well-formed
		"volatrace 1 1\nu\n",                       // minimal
		"volatrace 1 5\nuurdu",                     // missing final newline
		"",                                         // empty input
		"volatrace\n",                              // header without dimensions
		"volatrace 2 3\nuud\n",                     // fewer vectors than claimed
		"volatrace 1 3\nuu\n",                      // vector shorter than claimed
		"volatrace 1 2\nuud\n",                     // vector longer than claimed
		"volatrace 1 3\nuxd\n",                     // invalid state letter
		"volatrace -1 3\nuud\n",                    // negative dimensions
		"volatrace 999999999 999999999\n",          // over-allocation probe
		"volatrace 2 1000000000\nu\nu\n",           // claimed length far beyond input
		"VOLATRACE 2 3\nuud\nrdu\n",                // wrong magic case
		"volatrace 2 3\r\nuud\r\nrdu\r\n",          // CRLF line endings
		"volatrace 1 4\n" + strings.Repeat("u", 4), // exact fit
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against header-claimed over-allocation: whatever the input
		// says, Read must not reserve memory beyond a constant factor of
		// the input's actual size (checked indirectly: the parse of a tiny
		// input either fails fast or yields a set no larger than the input).
		set, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics and over-allocation are not
		}
		if verr := set.Validate(); verr != nil {
			t.Fatalf("Read accepted an invalid set: %v", verr)
		}
		total := 0
		for _, v := range set.Vectors {
			total += len(v)
		}
		if total > len(data) {
			t.Fatalf("parsed %d states out of %d input bytes", total, len(data))
		}
		// Round trip: Write must re-serialize what Read understood, and
		// Read must accept its own serialization verbatim.
		var buf bytes.Buffer
		if err := set.Write(&buf); err != nil {
			t.Fatalf("Write failed on a set Read accepted: %v", err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Read rejected Write's own output %q: %v", buf.String(), err)
		}
		if len(again.Vectors) != len(set.Vectors) {
			t.Fatalf("round trip changed vector count: %d != %d", len(again.Vectors), len(set.Vectors))
		}
		for i := range set.Vectors {
			if set.Vectors[i].String() != again.Vectors[i].String() {
				t.Fatalf("round trip changed vector %d: %q != %q",
					i, set.Vectors[i].String(), again.Vectors[i].String())
			}
		}
	})
}

// TestReadOverAllocationGuard pins the fix FuzzTraceRead's probe seed
// targets: a header claiming a billion vectors must fail fast on the
// truncated input without reserving memory for the claim.
func TestReadOverAllocationGuard(t *testing.T) {
	_, err := Read(strings.NewReader("volatrace 999999999 3\nuud\n"))
	if err == nil {
		t.Fatal("truncated billion-vector set accepted")
	}
}
