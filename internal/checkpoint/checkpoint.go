// Package checkpoint persists the running state of a chunked sweep so a
// killed process can resume instead of restarting from zero.
//
// A Snapshot captures everything the sweep committer owns at a chunk
// boundary: the canonical config digest (so a checkpoint can never be
// resumed into a different sweep), the committed-chunk watermark, and the
// exact running state of every destination aggregator — float sums as raw
// IEEE-754 bits, so a resumed sweep reproduces an uninterrupted run
// bit for bit.
//
// The on-disk format is a line-oriented text document ending in a SHA-256
// checksum over everything before it. Save writes it atomically
// (write-temp-then-rename via internal/atomicio); Decode rejects any file
// whose checksum does not match — a truncated, torn or hand-edited
// checkpoint fails loudly instead of resuming a half-state.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/atomicio"
	"repro/internal/stats"
)

// magic is the format header; bump the version when the layout changes so
// old readers reject new files (and vice versa) instead of misparsing them.
const magic = "volatile-checkpoint v1"

// maxAccumPrealloc caps slice preallocation from header-declared counts, so
// a corrupt count cannot force a huge allocation before parsing fails.
const maxAccumPrealloc = 4096

// Snapshot is the durable state of a sweep at a committed-chunk boundary.
type Snapshot struct {
	// ConfigDigest is the canonical SHA-256 (hex) of the sweep config that
	// produced this state. Resume must refuse a mismatched digest.
	ConfigDigest string
	// Chunks is the sweep's total chunk count (cells × scenarios).
	Chunks int
	// NextChunk is the watermark: chunks [0, NextChunk) are merged into the
	// aggregates below; resume re-runs chunks [NextChunk, Chunks).
	NextChunk int
	// Censored is the committed censored-run count.
	Censored int
	// Failed is the committed count of instances dropped after a failed
	// run (the ContinueOnError record-and-continue failure policy).
	Failed int
	// Overall is the running state of the sweep-wide aggregator.
	Overall stats.AggregatorState
	// Keyed holds the per-wmin and per-cell aggregators under opaque string
	// keys chosen by the sweep layer (e.g. "wmin 3", "cell 20 5 10").
	Keyed map[string]stats.AggregatorState
}

// Encode writes the snapshot in the durable format, checksum line included.
func Encode(w io.Writer, s *Snapshot) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", magic)
	fmt.Fprintf(&b, "config %s\n", s.ConfigDigest)
	fmt.Fprintf(&b, "chunks %d\n", s.Chunks)
	fmt.Fprintf(&b, "next %d\n", s.NextChunk)
	fmt.Fprintf(&b, "censored %d\n", s.Censored)
	fmt.Fprintf(&b, "failed %d\n", s.Failed)
	writeAgg(&b, "overall", s.Overall)
	keys := make([]string, 0, len(s.Keyed))
	for k := range s.Keyed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		writeAgg(&b, k, s.Keyed[k])
	}
	sum := sha256.Sum256(b.Bytes())
	fmt.Fprintf(&b, "sum %s\n", hex.EncodeToString(sum[:]))
	_, err := w.Write(b.Bytes())
	return err
}

func writeAgg(b *bytes.Buffer, key string, st stats.AggregatorState) {
	fmt.Fprintf(b, "agg %q %d %d\n", key, st.Instances, len(st.Accums))
	for _, a := range st.Accums {
		fmt.Fprintf(b, "h %q %016x %d %d\n", a.Name, a.SumBits, a.Count, a.Wins)
	}
}

// Decode parses and validates a snapshot. Any structural damage — missing
// or mismatched checksum, unknown version, out-of-range counters, duplicate
// keys, short aggregate blocks — is an error; Decode never returns a
// partially filled snapshot alongside a nil error.
func Decode(data []byte) (*Snapshot, error) {
	payload, err := verifyChecksum(data)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(payload), "\n"), "\n")
	p := &parser{lines: lines}

	if line, err := p.next(); err != nil {
		return nil, err
	} else if line != magic {
		return nil, fmt.Errorf("checkpoint: unsupported header %q (want %q)", line, magic)
	}
	s := &Snapshot{Keyed: make(map[string]stats.AggregatorState)}
	if s.ConfigDigest, err = p.stringField("config"); err != nil {
		return nil, err
	}
	if !isHexDigest(s.ConfigDigest) {
		return nil, fmt.Errorf("checkpoint: config digest %q is not a sha256 hex digest", s.ConfigDigest)
	}
	if s.Chunks, err = p.intField("chunks"); err != nil {
		return nil, err
	}
	if s.NextChunk, err = p.intField("next"); err != nil {
		return nil, err
	}
	if s.Censored, err = p.intField("censored"); err != nil {
		return nil, err
	}
	if s.Failed, err = p.intField("failed"); err != nil {
		return nil, err
	}
	if s.Chunks < 0 || s.NextChunk < 0 || s.NextChunk > s.Chunks {
		return nil, fmt.Errorf("checkpoint: watermark %d out of range for %d chunks", s.NextChunk, s.Chunks)
	}
	if s.Censored < 0 || s.Failed < 0 {
		return nil, fmt.Errorf("checkpoint: negative counters (censored %d, failed %d)", s.Censored, s.Failed)
	}

	sawOverall := false
	for !p.done() {
		key, st, err := p.aggBlock()
		if err != nil {
			return nil, err
		}
		if key == "overall" {
			if sawOverall {
				return nil, fmt.Errorf("checkpoint: duplicate overall aggregate")
			}
			sawOverall = true
			s.Overall = st
			continue
		}
		if _, dup := s.Keyed[key]; dup {
			return nil, fmt.Errorf("checkpoint: duplicate aggregate key %q", key)
		}
		s.Keyed[key] = st
	}
	if !sawOverall {
		return nil, fmt.Errorf("checkpoint: missing overall aggregate")
	}
	return s, nil
}

// verifyChecksum splits off the trailing "sum <hex>" line and checks it
// against the SHA-256 of everything before it, returning the payload.
func verifyChecksum(data []byte) ([]byte, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("checkpoint: truncated file (no trailing newline)")
	}
	idx := bytes.LastIndexByte(data[:len(data)-1], '\n')
	last := string(data[idx+1 : len(data)-1]) // idx is -1 for a one-line file; slice still works
	want, ok := strings.CutPrefix(last, "sum ")
	if !ok {
		return nil, fmt.Errorf("checkpoint: truncated file (missing checksum line)")
	}
	payload := data[:idx+1]
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != want {
		return nil, fmt.Errorf("checkpoint: checksum mismatch (file corrupt or torn)")
	}
	return payload, nil
}

func isHexDigest(s string) bool {
	if len(s) != 64 {
		return false
	}
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// parser walks the payload lines with one-token-lookahead error reporting.
type parser struct {
	lines []string
	pos   int
}

func (p *parser) done() bool { return p.pos >= len(p.lines) }

func (p *parser) next() (string, error) {
	if p.done() {
		return "", fmt.Errorf("checkpoint: unexpected end of file at line %d", p.pos+1)
	}
	line := p.lines[p.pos]
	p.pos++
	return line, nil
}

// stringField parses "<key> <value>" where value extends to end of line.
func (p *parser) stringField(key string) (string, error) {
	line, err := p.next()
	if err != nil {
		return "", err
	}
	v, ok := strings.CutPrefix(line, key+" ")
	if !ok {
		return "", fmt.Errorf("checkpoint: line %d: want %q field, got %q", p.pos, key, line)
	}
	return v, nil
}

func (p *parser) intField(key string) (int, error) {
	v, err := p.stringField(key)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: line %d: bad %s count %q", p.pos, key, v)
	}
	return n, nil
}

// aggBlock parses one `agg "<key>" <instances> <naccums>` header and its
// accumulator lines.
func (p *parser) aggBlock() (string, stats.AggregatorState, error) {
	var st stats.AggregatorState
	line, err := p.next()
	if err != nil {
		return "", st, err
	}
	rest, ok := strings.CutPrefix(line, "agg ")
	if !ok {
		return "", st, fmt.Errorf("checkpoint: line %d: want aggregate block, got %q", p.pos, line)
	}
	key, rest, err := cutQuoted(rest)
	if err != nil {
		return "", st, fmt.Errorf("checkpoint: line %d: %v", p.pos, err)
	}
	var n int
	if _, err := fmt.Sscanf(rest, "%d %d", &st.Instances, &n); err != nil {
		return "", st, fmt.Errorf("checkpoint: line %d: bad aggregate header %q", p.pos, line)
	}
	if st.Instances < 0 || n < 0 {
		return "", st, fmt.Errorf("checkpoint: line %d: negative aggregate counts", p.pos)
	}
	st.Accums = make([]stats.AccumState, 0, min(n, maxAccumPrealloc))
	var prev string
	for i := 0; i < n; i++ {
		line, err := p.next()
		if err != nil {
			return "", st, err
		}
		rest, ok := strings.CutPrefix(line, "h ")
		if !ok {
			return "", st, fmt.Errorf("checkpoint: line %d: want accumulator line, got %q", p.pos, line)
		}
		name, rest, err := cutQuoted(rest)
		if err != nil {
			return "", st, fmt.Errorf("checkpoint: line %d: %v", p.pos, err)
		}
		fields := strings.Fields(rest)
		if len(fields) != 3 {
			return "", st, fmt.Errorf("checkpoint: line %d: bad accumulator line %q", p.pos, line)
		}
		bits, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return "", st, fmt.Errorf("checkpoint: line %d: bad sum bits %q", p.pos, fields[0])
		}
		count, err := strconv.Atoi(fields[1])
		if err != nil || count < 0 {
			return "", st, fmt.Errorf("checkpoint: line %d: bad sample count %q", p.pos, fields[1])
		}
		wins, err := strconv.Atoi(fields[2])
		if err != nil || wins < 0 {
			return "", st, fmt.Errorf("checkpoint: line %d: bad win count %q", p.pos, fields[2])
		}
		if i > 0 && name <= prev {
			return "", st, fmt.Errorf("checkpoint: line %d: accumulators not strictly sorted (%q after %q)", p.pos, name, prev)
		}
		prev = name
		st.Accums = append(st.Accums, stats.AccumState{Name: name, SumBits: bits, Count: count, Wins: wins})
	}
	return key, st, nil
}

// cutQuoted splits a Go-quoted string off the front of s, returning the
// unquoted value and the remainder (leading space trimmed).
func cutQuoted(s string) (string, string, error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted name in %q", s)
	}
	v, err := strconv.Unquote(q)
	if err != nil {
		return "", "", fmt.Errorf("bad quoted name in %q", s)
	}
	return v, strings.TrimPrefix(s[len(q):], " "), nil
}

// Save writes the snapshot to path atomically: a crash during Save leaves
// either the previous checkpoint or the new one, never a torn file.
func Save(path string, s *Snapshot) error {
	return atomicio.WriteFile(path, func(w io.Writer) error {
		return Encode(w, s)
	})
}

// Load reads and validates the snapshot at path.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return Decode(data)
}
