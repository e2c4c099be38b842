package sweepreq

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestBuildMoldableRequest pins the moldable experiment's request plumbing:
// the policy spec feeds the digest (different specs never share a cache
// entry), the defaulted spec canonicalizes to the explicit one, and the
// built Run executes through the moldable pipeline.
func TestBuildMoldableRequest(t *testing.T) {
	base := Request{Exp: "moldable", Scenarios: 1, Trials: 1, Seed: 9}
	defaulted, err := Build(base)
	if err != nil {
		t.Fatalf("Build(defaulted) error: %v", err)
	}
	explicit := base
	explicit.Alloc = "maximum-iters"
	eb, err := Build(explicit)
	if err != nil {
		t.Fatalf("Build(explicit) error: %v", err)
	}
	if defaulted.Digest != eb.Digest {
		t.Fatalf("defaulted alloc digest %s != explicit maximum-iters %s", defaulted.Digest, eb.Digest)
	}
	seen := map[string]string{"maximum-iters": eb.Digest}
	for _, alloc := range []string{"fixed", "split-into:4", "reshape:1"} {
		r := base
		r.Alloc = alloc
		b, err := Build(r)
		if err != nil {
			t.Fatalf("Build(alloc=%s) error: %v", alloc, err)
		}
		for prev, d := range seen {
			if d == b.Digest {
				t.Fatalf("alloc %q and %q share digest %s", alloc, prev, d)
			}
		}
		seen[alloc] = b.Digest
	}

	res, err := eb.Run(RunOpts{})
	if err != nil {
		t.Fatalf("moldable Run error: %v", err)
	}
	if res.Instances != eb.Instances {
		t.Fatalf("moldable sweep aggregated %d instances, want %d", res.Instances, eb.Instances)
	}
}

// FuzzRequestJSON throws arbitrary JSON at the service's wire format. The
// contract under fuzz: decoding plus Build never panics, a Build error
// never comes with a Built (validation fails closed), and any accepted
// request is deterministic — rebuilding the decoded request reproduces the
// same digest, and the request survives a marshal/unmarshal round trip to
// the same Built. The seed corpus mirrors FuzzCheckpointDecode's style:
// valid submissions of increasing richness plus structural near-misses.
func FuzzRequestJSON(f *testing.F) {
	for _, r := range []Request{
		{Exp: "table2"},
		{Exp: "moldable", Alloc: "reshape:2", Scenarios: 2, Trials: 1, Seed: 7, Mode: "event"},
		{Exp: "tracesweep", TraceStyle: "pareto", TraceLen: 500, ContinueOnError: true},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"exp":"moldable","alloc":"split-into:0"}`))
	f.Add([]byte(`{"exp":"moldable","alloc":"zipf"}`))
	f.Add([]byte(`{"exp":"table2","alloc":"fixed"}`))
	f.Add([]byte(`{"exp":"table2","scenarios":-1}`))
	f.Add([]byte(`{"exp":"table2","seed":18446744073709551615}`))
	f.Add([]byte(`{"exp":"ablation"}`))
	f.Add([]byte(`{"exp":"table2","unknown_field":1}`))
	f.Add([]byte(`{"exp":1e999}`))
	f.Add([]byte(`{"exp"`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // malformed wire data is the decoder's problem, not Build's
		}
		built, err := Build(req)
		if err != nil {
			if built != nil {
				t.Fatalf("Build returned %+v alongside error %v", built, err)
			}
			return
		}
		if built.Digest == "" || built.Instances <= 0 || built.Run == nil {
			t.Fatalf("accepted request built incomplete %+v", built)
		}
		// Accepted requests are deterministic and survive a wire round trip.
		again, err := Build(req)
		if err != nil || again.Digest != built.Digest {
			t.Fatalf("rebuild of accepted request diverged: digest %s vs %s (err %v)",
				built.Digest, again.Digest, err)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		var rt Request
		if err := json.Unmarshal(wire, &rt); err != nil {
			t.Fatalf("accepted request does not round-trip: %v", err)
		}
		if rtb, err := Build(rt); err != nil || rtb.Digest != built.Digest {
			t.Fatalf("round-tripped request built differently: %v / %s vs %s", err, rtb.Digest, built.Digest)
		}
	})
}
