package service

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// panicLog is a slog handler that panics the first time it handles a
// record with message trigger, and keeps every other record. Loggers
// derived through With share its state.
type panicLog struct {
	trigger string

	mu    sync.Mutex
	fired bool
	recs  []slog.Record
}

func (h *panicLog) Enabled(context.Context, slog.Level) bool { return true }
func (h *panicLog) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *panicLog) WithGroup(string) slog.Handler            { return h }

func (h *panicLog) Handle(_ context.Context, r slog.Record) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if r.Message == h.trigger && !h.fired {
		h.fired = true
		panic("injected job panic")
	}
	h.recs = append(h.recs, r.Clone())
	return nil
}

// record returns the first kept record with message msg.
func (h *panicLog) record(msg string) (slog.Record, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, r := range h.recs {
		if r.Message == msg {
			return r, true
		}
	}
	return slog.Record{}, false
}

// TestJobPanicContained: a job whose run panics fails alone. It ends
// JobFailed with the panic in its error, the stack goes to the job's
// logger, the panic counter moves, its checkpoint stays on disk, and the
// same worker goes on to run the next job to completion.
func TestJobPanicContained(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Dir: dir, Shards: -1, Workers: 1, Seed: 1}

	// A first daemon leaves a durable job mid-fit with a checkpoint.
	svc1 := newTestService(t, opts)
	g := testGraph(t, 60)
	ds, err := svc1.Registry().Upload("panic", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc1.Measure(ds.ID, MeasureRequest{Eps: 1, TbI: true, Seed: 7, Keep: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := svc1.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Steps: 40_000,
		ProgressEvery: 100, CheckpointEvery: 500, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "ckpt-"+job.ID+".json")
	deadline := time.After(2 * time.Minute)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never wrote a checkpoint")
		case <-time.After(2 * time.Millisecond):
		}
	}
	svc1.Close()

	// The second daemon recovers the job, whose run panics at its first
	// log line.
	h := &panicLog{trigger: "job running"}
	opts.Logger = slog.New(h)
	before := jobPanics.Value()
	svc2 := newTestService(t, opts)
	j, err := svc2.jobs.get(job.ID)
	if err != nil {
		t.Fatalf("boot recovery did not re-queue job %s: %v", job.ID, err)
	}
	<-j.Done()
	st := j.Status()
	if st.State != JobFailed || !strings.Contains(st.Error, "injected job panic") {
		t.Fatalf("panicking job ended %s (%q), want failed with the panic", st.State, st.Error)
	}
	if got := jobPanics.Value() - before; got != 1 {
		t.Errorf("wpinq_job_panics_total moved by %g, want 1", got)
	}
	rec, ok := h.record("job panicked")
	if !ok {
		t.Fatal("no \"job panicked\" log record")
	}
	var stack string
	rec.Attrs(func(a slog.Attr) bool {
		if a.Key == "stack" {
			stack = a.Value.String()
		}
		return true
	})
	if !strings.Contains(stack, "(*JobManager).run") {
		t.Errorf("logged stack does not show the job run:\n%s", stack)
	}
	if _, err := os.Stat(ckptPath); err != nil {
		t.Errorf("checkpoint gone after a panicking run: %v", err)
	}

	// The worker survived: the next job runs to completion.
	next, err := svc2.SubmitJob(JobRequest{Measurement: res.Measurement.ID, Steps: 200, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jn, err := svc2.jobs.get(next.ID)
	if err != nil {
		t.Fatal(err)
	}
	<-jn.Done()
	if st := jn.Status(); st.State != JobDone {
		t.Fatalf("job after the panic ended %s (%s), want done", st.State, st.Error)
	}
}
