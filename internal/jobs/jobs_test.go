package jobs

import (
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/sweepreq"
)

// fastReq is the cheapest real sweep (1 cell × 1 scenario × 1 trial).
func fastReq() sweepreq.Request {
	return sweepreq.Request{Exp: "table3x5", Scenarios: 1, Trials: 1, Seed: 11}
}

// slowReq has enough chunk boundaries (10) to stop mid-flight reliably.
func slowReq() sweepreq.Request {
	return sweepreq.Request{Exp: "table3x5", Scenarios: 10, Trials: 4, Seed: 11}
}

func newTestScheduler(t *testing.T, dir string) *Scheduler {
	t.Helper()
	s, err := New(Options{DataDir: dir, CheckpointEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// drain reads events until the stream closes, returning them all.
func drain(t *testing.T, j *Job) []Event {
	t.Helper()
	ch, cancel := j.Subscribe()
	defer cancel()
	var evs []Event
	deadline := time.After(2 * time.Minute)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return evs
			}
			evs = append(evs, ev)
		case <-deadline:
			t.Fatalf("job %s did not reach a terminal state (events so far: %+v)", j.Digest, evs)
		}
	}
}

func lastType(evs []Event) string {
	if len(evs) == 0 {
		return ""
	}
	return evs[len(evs)-1].Type
}

// TestSubmitRunsToDoneAndCaches pins the basic lifecycle: queued → running
// → progress → done, a result cached on disk under the config digest, and
// the checkpoint cleaned up after success.
func TestSubmitRunsToDoneAndCaches(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	defer s.Stop()

	j, started, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("first submission did not start a sweep")
	}
	evs := drain(t, j)
	if lastType(evs) != "done" {
		t.Fatalf("terminal event %q, want done (events: %+v)", lastType(evs), evs)
	}
	if j.State() != StateDone {
		t.Fatalf("state %s, want done", j.State())
	}
	types := map[string]bool{}
	for _, ev := range evs {
		types[ev.Type] = true
	}
	for _, want := range []string{"queued", "running", "progress", "done"} {
		if !types[want] {
			t.Fatalf("event log missing %q: %+v", want, evs)
		}
	}

	res, err := s.loadResult(j.Digest)
	if err != nil {
		t.Fatalf("no cached result after done: %v", err)
	}
	if res.ConfigDigest != j.Digest || res.ResultDigest == "" || res.Format == "" {
		t.Fatalf("cached result incomplete: %+v", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "checkpoints", j.Digest+".ckpt")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint survived a successful sweep (err=%v)", err)
	}
}

// TestCacheHitDoesNoSweepWork pins the content-addressed cache: the second
// identical submission joins as done without launching anything, in the
// same process and — via a fresh scheduler over the same data dir — across
// a restart.
func TestCacheHitDoesNoSweepWork(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	j1, _, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j1)
	if n := s.SweepsStarted(); n != 1 {
		t.Fatalf("SweepsStarted = %d after first run, want 1", n)
	}

	j2, started, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	if started || j2 != j1 {
		t.Fatalf("second submission started=%v sameJob=%v, want false/true", started, j2 == j1)
	}
	if n := s.SweepsStarted(); n != 1 {
		t.Fatalf("SweepsStarted = %d after cache hit, want 1", n)
	}
	s.Stop()

	// A fresh scheduler over the same data dir serves it from disk.
	s2 := newTestScheduler(t, dir)
	defer s2.Stop()
	j3, started, err := s2.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	if started || j3.State() != StateDone {
		t.Fatalf("restarted scheduler: started=%v state=%s, want cache hit", started, j3.State())
	}
	evs := drain(t, j3)
	if lastType(evs) != "done" {
		t.Fatalf("cache-hit job stream ends with %q, want done", lastType(evs))
	}
	if n := s2.SweepsStarted(); n != 0 {
		t.Fatalf("restarted scheduler ran %d sweeps for a cached result", n)
	}
}

// TestStopResumeBitIdentical is the acceptance property at scheduler level:
// a job stopped mid-flight, with its scheduler shut down, resumes on a
// fresh scheduler over the same data dir and lands on the digest of an
// uninterrupted run.
func TestStopResumeBitIdentical(t *testing.T) {
	// Uninterrupted reference, no scheduler involved.
	built, err := sweepreq.Build(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Digest()

	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	j, _, err := s.Submit(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	// Stop at the first progress event; the committer notices at the next
	// chunk boundary and persists the committed prefix.
	ch, cancel := j.Subscribe()
	for ev := range ch {
		if ev.Type == "progress" {
			s.StopJob(j.Digest)
			break
		}
	}
	cancel()
	evs := drain(t, j)
	if lastType(evs) != "stopped" {
		t.Fatalf("terminal event %q, want stopped (events: %+v)", lastType(evs), evs)
	}
	stopEv := evs[len(evs)-1]
	if stopEv.CommittedChunks <= 0 || stopEv.CommittedChunks >= stopEv.Chunks {
		t.Fatalf("stopped event committed %d/%d, want a strict prefix", stopEv.CommittedChunks, stopEv.Chunks)
	}
	s.Stop()

	s2 := newTestScheduler(t, dir)
	defer s2.Stop()
	j2, started, err := s2.Submit(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("resubmission after stop did not restart the sweep")
	}
	if lastType(drain(t, j2)) != "done" {
		t.Fatalf("resumed job ended %q, want done", j2.State())
	}
	res, err := s2.loadResult(j2.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultDigest != want {
		t.Fatalf("resumed result digest %s != uninterrupted %s", res.ResultDigest, want)
	}
}

// TestBootResumeInterruptedBitIdentical is the server-restart acceptance
// property: a job interrupted by scheduler shutdown is picked back up at
// the next boot by ResumeInterrupted alone — no client resubmits anything —
// and completes to the digest of an uninterrupted run.
func TestBootResumeInterruptedBitIdentical(t *testing.T) {
	built, err := sweepreq.Build(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := built.Run(sweepreq.RunOpts{})
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Digest()

	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	j, _, err := s.Submit(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	// Kill the server once the sweep is mid-flight: Stop interrupts the job
	// at its next chunk boundary, exactly as SIGTERM does in volaserved.
	ch, cancel := j.Subscribe()
	for ev := range ch {
		if ev.Type == "progress" {
			break
		}
	}
	cancel()
	s.Stop()
	if st := j.State(); st != StateStopped {
		t.Fatalf("job state after shutdown %s, want stopped", st)
	}
	if _, err := os.Stat(filepath.Join(dir, "requests", j.Digest+".json")); err != nil {
		t.Fatalf("interrupted job left no persisted request: %v", err)
	}

	// Reboot: the boot scan alone must resubmit and finish the job.
	s2 := newTestScheduler(t, dir)
	defer s2.Stop()
	n, rejected, err := s2.ResumeInterrupted()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 || rejected != 0 {
		t.Fatalf("ResumeInterrupted resubmitted %d jobs and rejected %d stubs, want 1 and 0", n, rejected)
	}
	j2, ok := s2.Get(j.Digest)
	if !ok {
		t.Fatal("resumed job not in the table")
	}
	if lastType(drain(t, j2)) != "done" {
		t.Fatalf("boot-resumed job ended %q, want done", j2.State())
	}
	res, err := s2.loadResult(j.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultDigest != want {
		t.Fatalf("boot-resumed digest %s != uninterrupted %s", res.ResultDigest, want)
	}
	// Success consumed the stub: the next boot has nothing to resume.
	if _, err := os.Stat(filepath.Join(dir, "requests", j.Digest+".json")); !os.IsNotExist(err) {
		t.Fatalf("request stub survived a completed job (err=%v)", err)
	}
	s2.Stop()
	s3 := newTestScheduler(t, dir)
	defer s3.Stop()
	if n, _, err := s3.ResumeInterrupted(); err != nil || n != 0 {
		t.Fatalf("clean boot resumed %d jobs (err=%v), want 0", n, err)
	}
}

// TestBootResumesStubWithRetries pins that a request stub carrying the
// "retries" field, which requests no longer have, still resumes at boot:
// the boot scan decodes stubs leniently, so the job resumes under the
// config digest the stub is named after (recorded while requests had the
// field) and completes to the same result.
func TestBootResumesStubWithRetries(t *testing.T) {
	const (
		configDigest = "6f33489beddd5803f1a1f7e805df5282f7ace9773f96f1f8fe56d4d653ad0297"
		resultDigest = "b69d6723cc56a3ce8223e7e5866b51255363c03ca40aa1945a131bf74fd95dfd"
		stub         = `{"exp":"table3x5","scenarios":1,"trials":1,"seed":11,"retries":2,"continue_on_error":true}`
	)
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	defer s.Stop()
	if err := os.WriteFile(filepath.Join(dir, "requests", configDigest+".json"), []byte(stub), 0o644); err != nil {
		t.Fatal(err)
	}
	n, _, err := s.ResumeInterrupted()
	if err != nil || n != 1 {
		t.Fatalf("ResumeInterrupted resubmitted %d jobs (err=%v), want 1", n, err)
	}
	j, ok := s.Get(configDigest)
	if !ok {
		t.Fatalf("stub did not resume under its digest %s", configDigest)
	}
	if lastType(drain(t, j)) != "done" {
		t.Fatalf("boot-resumed job ended %q, want done", j.State())
	}
	res, err := s.loadResult(configDigest)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResultDigest != resultDigest {
		t.Fatalf("boot-resumed result digest %s, want %s", res.ResultDigest, resultDigest)
	}
}

// TestBootRejectsBadStubOnce boots twice over a data dir holding a good
// request stub beside one that no longer builds. The first boot resumes the
// good stub and moves the bad one aside as <digest>.rejected; the second
// finds nothing to read: the good job's stub went with its cached result,
// and the rejected one is no longer a .json stub.
func TestBootRejectsBadStubOnce(t *testing.T) {
	dir := t.TempDir()
	reqs := filepath.Join(dir, "requests")
	good, err := sweepreq.Build(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestScheduler(t, dir)
	defer s.Stop()
	for name, body := range map[string]string{
		good.Digest: `{"exp":"table3x5","scenarios":1,"trials":1,"seed":11}`,
		"bad":       `{"exp":"table9"}`,
	} {
		if err := os.WriteFile(filepath.Join(reqs, name+".json"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, rejected, err := s.ResumeInterrupted()
	if err != nil || n != 1 || rejected != 1 {
		t.Fatalf("first boot: resumed %d, rejected %d (err=%v), want 1 and 1", n, rejected, err)
	}
	j, ok := s.Get(good.Digest)
	if !ok {
		t.Fatal("good stub did not resume under its digest")
	}
	if lastType(drain(t, j)) != "done" {
		t.Fatalf("boot-resumed job ended %q, want done", j.State())
	}
	s.Stop()

	s2 := newTestScheduler(t, dir)
	defer s2.Stop()
	if n, rejected, err := s2.ResumeInterrupted(); err != nil || n != 0 || rejected != 0 {
		t.Fatalf("second boot: resumed %d, rejected %d (err=%v), want 0 and 0", n, rejected, err)
	}
	entries, err := os.ReadDir(reqs)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if !reflect.DeepEqual(names, []string{"bad.rejected"}) {
		t.Fatalf("requests dir after two boots: %v, want [bad.rejected]", names)
	}
}

// TestResultsTTLEviction drives the eviction policy with a fake clock:
// fresh results stay, a live subscriber pins an expired one, and once the
// last stream detaches both the cache file and the terminal job-table
// entry go — after which a resubmission really re-runs the sweep.
func TestResultsTTLEviction(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	s, err := New(Options{
		DataDir: dir, CheckpointEvery: 1,
		ResultsTTL: time.Hour, Now: clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	j, _, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	if n := s.evictExpired(); n != 0 {
		t.Fatalf("fresh result evicted (%d)", n)
	}

	// Age the result past the TTL. CompletedAt is wall-clock, so move the
	// fake clock relative to the real completion time.
	mu.Lock()
	now = time.Now().Add(2 * time.Hour)
	mu.Unlock()

	ch, _ := j.Subscribe()
	if n := s.evictExpired(); n != 0 {
		t.Fatalf("evicted %d results out from under a live subscriber", n)
	}
	if _, ok := s.Get(j.Digest); !ok {
		t.Fatal("subscribed job vanished from the table")
	}
	for range ch {
		// Drain to close: the stream ends only after the subscriber pin is
		// released (deferred LIFO in Subscribe).
	}
	if n := s.evictExpired(); n != 1 {
		t.Fatalf("evicted %d results, want 1", n)
	}
	if _, ok := s.Get(j.Digest); ok {
		t.Fatal("evicted job still in the table")
	}
	if _, err := os.Stat(filepath.Join(dir, "results", j.Digest+".json")); !os.IsNotExist(err) {
		t.Fatalf("evicted result file still on disk (err=%v)", err)
	}
	j2, started, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	if !started {
		t.Fatal("post-eviction submission was served from a cache that no longer exists")
	}
	if lastType(drain(t, j2)) != "done" {
		t.Fatalf("post-eviction rerun ended %q, want done", j2.State())
	}
}

// TestResultsTTLEvictsAtBoot pins the construction-time GC: a scheduler
// booted over a data dir holding only expired results clears them before
// serving, so the first submission re-runs rather than serving stale data
// past its retention.
func TestResultsTTLEvictsAtBoot(t *testing.T) {
	dir := t.TempDir()
	s := newTestScheduler(t, dir)
	j, _, err := s.Submit(fastReq())
	if err != nil {
		t.Fatal(err)
	}
	drain(t, j)
	s.Stop()

	s2, err := New(Options{
		DataDir: dir, CheckpointEvery: 1,
		ResultsTTL: time.Hour,
		Now:        func() time.Time { return time.Now().Add(48 * time.Hour) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if _, err := os.Stat(filepath.Join(dir, "results", j.Digest+".json")); !os.IsNotExist(err) {
		t.Fatalf("boot GC left the expired result behind (err=%v)", err)
	}
	if _, started, err := s2.Submit(fastReq()); err != nil || !started {
		t.Fatalf("submission after boot GC: started=%v err=%v, want a fresh run", started, err)
	}
}

// TestPartialEventsStreamCommittedAggregates pins the partial stream: with
// a checkpoint after every chunk, a job of N chunks emits exactly one
// partial event per strict prefix, watermarks 1..N−1 in order, each with
// the committed instance count and the top rows; done carries the rest.
func TestPartialEventsStreamCommittedAggregates(t *testing.T) {
	s := newTestScheduler(t, t.TempDir())
	defer s.Stop()
	req := slowReq()
	j, _, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	evs := drain(t, j)
	if lastType(evs) != "done" {
		t.Fatalf("terminal event %q, want done", lastType(evs))
	}
	chunks := j.built.Instances / req.Trials // one chunk per (cell, scenario)
	var got []int
	for _, ev := range evs {
		if ev.Type != "partial" {
			continue
		}
		if ev.Chunks != chunks || ev.Instances != ev.CommittedChunks*req.Trials || len(ev.Top) == 0 || len(ev.Top) > 5 {
			t.Fatalf("malformed partial event: %+v", ev)
		}
		got = append(got, ev.CommittedChunks)
	}
	want := make([]int, chunks-1)
	for i := range want {
		want[i] = i + 1
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("partial watermarks %v, want %v", got, want)
	}
}

// TestSubmitRejectsInvalidAndNonSweep pins that validation errors surface
// at submission, not as failed jobs.
func TestSubmitRejectsInvalidAndNonSweep(t *testing.T) {
	s := newTestScheduler(t, t.TempDir())
	defer s.Stop()
	if _, _, err := s.Submit(sweepreq.Request{Exp: "ablation"}); err == nil {
		t.Fatal("non-sweep experiment was admitted")
	}
	if _, _, err := s.Submit(sweepreq.Request{Exp: "table2", Scenarios: -1}); err == nil {
		t.Fatal("invalid request was admitted")
	}
	if n := s.SweepsStarted(); n != 0 {
		t.Fatalf("rejected submissions started %d sweeps", n)
	}
}

// TestSchedulerStopInterruptsQueuedAndRunning pins shutdown: Stop drains
// every job into a terminal state and later submissions are refused.
func TestSchedulerStopInterruptsQueuedAndRunning(t *testing.T) {
	s := newTestScheduler(t, t.TempDir())
	// MaxConcurrent is 1, so the second job is queued behind the first.
	j1, _, err := s.Submit(slowReq())
	if err != nil {
		t.Fatal(err)
	}
	req2 := slowReq()
	req2.Seed = 99
	j2, _, err := s.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	// Let the first job make some progress before shutdown.
	ch, cancel := j1.Subscribe()
	for ev := range ch {
		if ev.Type == "progress" {
			break
		}
	}
	cancel()
	s.Stop()
	for _, j := range []*Job{j1, j2} {
		if st := j.State(); !st.terminal() {
			t.Fatalf("job %s left in state %s after Stop", j.Digest, st)
		}
	}
	if _, _, err := s.Submit(fastReq()); err != ErrShuttingDown {
		t.Fatalf("post-Stop submission returned %v, want ErrShuttingDown", err)
	}
}

// TestListOrder pins List's order: newest submission first, and jobs
// submitted at the same instant in ascending digest order.
func TestListOrder(t *testing.T) {
	s := newTestScheduler(t, t.TempDir())
	defer s.Stop()
	t0 := time.Unix(1_000_000, 0).UTC()
	jobs := []struct {
		digest string
		at     time.Time
	}{
		{"c", t0},
		{"e", t0.Add(time.Second)},
		{"a", t0},
		{"d", t0.Add(2 * time.Second)},
		{"b", t0.Add(time.Second)},
		{"f", t0.Add(-time.Second)},
	}
	s.mu.Lock()
	for _, j := range jobs {
		s.jobs[j.digest] = &Job{Digest: j.digest, state: StateDone, submittedAt: j.at}
	}
	s.mu.Unlock()
	var got []string
	for _, st := range s.List() {
		got = append(got, st.ID)
	}
	if want := []string{"d", "b", "e", "a", "c", "f"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("List order %v, want %v", got, want)
	}
}
