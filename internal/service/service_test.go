package service

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"wpinq/internal/budget"
	"wpinq/internal/graph"
	"wpinq/internal/synth"
)

func testGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := graph.HolmeKim(n, 3, 0.5, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func edgeListBytes(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// tbiCost is the total cost of one Eps=1 TbI measurement bundle:
// 3 eps seed measurements + 4 eps TbI.
const tbiCost = 7.0

func TestStorePersistsAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t, 60)
	m, err := synth.Measure(g, synth.Config{Eps: 1, Workloads: []string{"tbi"}}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	st1, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	info, err := st1.Put(m)
	if err != nil {
		t.Fatal(err)
	}
	again, err := st1.Put(m)
	if err != nil || again.ID != info.ID {
		t.Fatalf("re-Put not idempotent: %v %v vs %v", err, again.ID, info.ID)
	}

	// A fresh store over the same directory sees the same release,
	// byte-for-byte, under the same content-addressed ID.
	st2, err := NewStore(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	list := st2.List()
	if len(list) != 1 || list[0].ID != info.ID {
		t.Fatalf("restarted store lists %+v, want 1 entry %s", list, info.ID)
	}
	b1, err1 := st1.Bytes(info.ID)
	b2, err2 := st2.Bytes(info.ID)
	if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
		t.Fatalf("stored bytes diverged across restart (%v, %v)", err1, err2)
	}
	loaded, err := st2.Load(info.ID, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if _, hasTbI := loaded.Fits["tbi"]; loaded.Eps != 1 || !hasTbI {
		t.Fatalf("loaded measurement lost fields: %+v", loaded)
	}
	if _, err := st2.Bytes("mdeadbeef"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown id: got %v, want ErrNotFound", err)
	}
}

func TestMeasureDiscardsGraphAndKeepsLedger(t *testing.T) {
	svc := newTestService(t, Options{Shards: -1})
	g := testGraph(t, 60)
	// Budget for two bundles, but the default workflow discards the
	// graph after the first: the second request must fail on discard,
	// not overdraw, and the ledger must still show the first debit.
	info, err := svc.Registry().Upload("grqc", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, TbI: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Discarded {
		t.Error("graph not discarded after default measure")
	}
	if res.Cost != tbiCost {
		t.Errorf("cost = %g, want %g", res.Cost, tbiCost)
	}
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, TbI: true, Seed: 6}); !errors.Is(err, ErrDiscarded) {
		t.Fatalf("measure after discard: got %v, want ErrDiscarded", err)
	}
	after, err := svc.Registry().Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Discarded || after.Ledger.Spent != tbiCost {
		t.Errorf("ledger after discard: %+v", after)
	}
	if len(after.Measurements) != 1 || after.Measurements[0] != res.Measurement.ID {
		t.Errorf("measurement provenance lost: %+v", after.Measurements)
	}
}

func TestMeasureConcurrentOverdraw(t *testing.T) {
	svc := newTestService(t, Options{Shards: -1})
	g := testGraph(t, 60)
	// Exactly two bundles are affordable; ten concurrent requests race
	// for them with Keep so the graph survives for every attempt.
	info, err := svc.Registry().Upload("race", 2*tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	const attempts = 10
	var wg sync.WaitGroup
	errs := make([]error, attempts)
	for i := 0; i < attempts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = svc.Measure(info.ID, MeasureRequest{
				Eps: 1, TbI: true, Keep: true, Seed: int64(100 + i),
			})
		}(i)
	}
	// Listings race the measurements and a concurrent upload (pinned
	// under -race: List must not read registry/job maps unlocked).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			svc.Registry().List()
			svc.Jobs().List()
			svc.Store().List()
		}
		if _, err := svc.Registry().Upload("other", 1, bytes.NewReader(edgeListBytes(t, g))); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	var ok int
	for _, err := range errs {
		if err == nil {
			ok++
			continue
		}
		var ib *budget.InsufficientBudgetError
		if !errors.As(err, &ib) {
			t.Fatalf("unexpected failure mode: %v", err)
		}
	}
	if ok != 2 {
		t.Fatalf("%d measurements succeeded, want exactly 2", ok)
	}
	after, _ := svc.Registry().Info(info.ID)
	if after.Ledger.Spent != 2*tbiCost {
		t.Errorf("spent = %g, want %g", after.Ledger.Spent, 2*tbiCost)
	}
	if after.Discarded {
		t.Error("Keep measurement discarded the graph")
	}
}

func TestJobLifecycleAndCancellation(t *testing.T) {
	svc := newTestService(t, Options{Shards: -1, Workers: 1})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("jobs", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, TbI: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := svc.SubmitJob(JobRequest{Measurement: "nope", Steps: 10}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job on unknown measurement: got %v, want ErrNotFound", err)
	}

	// A long-running job on the single worker: observe progress, then
	// cancel; a queued job behind it cancels without ever running.
	long, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Steps: 50_000_000, ProgressEvery: 100, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Steps: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(2 * time.Minute)
	for {
		st, err := svc.Jobs().Get(long.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.Step > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("job never reported progress")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if _, err := svc.Jobs().Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	jLong, _ := svc.jobs.get(long.ID)
	<-jLong.Done()
	st := jLong.Status()
	if st.State != JobCancelled {
		t.Fatalf("long job state = %s, want cancelled", st.State)
	}
	if st.Step == 0 || st.Step >= st.Steps {
		t.Errorf("cancelled mid-run, step = %d of %d", st.Step, st.Steps)
	}
	// Cancellation keeps the partial synthetic graph downloadable.
	partial, _, err := svc.Jobs().Result(long.ID)
	if err != nil || partial.NumEdges() == 0 {
		t.Fatalf("partial result: %v", err)
	}
	if _, err := svc.Jobs().Cancel(long.ID); !errors.Is(err, ErrJobFinished) {
		t.Errorf("double cancel: got %v, want ErrJobFinished", err)
	}

	jq, _ := svc.jobs.get(queued.ID)
	<-jq.Done()
	if st := jq.Status(); st.State != JobCancelled || st.Step != 0 {
		t.Errorf("queued job = %+v, want cancelled before running", st)
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct {
		opts Options
		min  int
	}{
		{Options{Workers: 3}, 3},
		{Options{Shards: 0}, 1},  // auto: each job uses every CPU
		{Options{Shards: -1}, 1}, // one-shard jobs: one worker per CPU
	}
	for _, c := range cases {
		if got := workerCount(c.opts); got < c.min {
			t.Errorf("workerCount(%+v) = %d, want >= %d", c.opts, got, c.min)
		}
	}
}

func TestMeasureEmptyWorkloadsChargesNothing(t *testing.T) {
	// A measure request naming no fit workloads must be rejected before
	// the ledger is touched: the deeper check inside synth.Measure only
	// fires after the debit, which deliberately does not refund.
	svc := newTestService(t, Options{Shards: -1})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("empty", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1}); err == nil {
		t.Fatal("measure request with no workloads accepted")
	}
	after, err := svc.Registry().Info(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if after.Ledger.Spent != 0 {
		t.Errorf("empty-workload request spent %g of the budget", after.Ledger.Spent)
	}
	if after.Discarded {
		t.Error("empty-workload request discarded the graph")
	}
	// The budget remains fully usable.
	if _, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}}); err != nil {
		t.Fatalf("valid measurement after rejected request: %v", err)
	}
}

func TestSubmitRejectsUnmeasuredWorkload(t *testing.T) {
	// Requesting a fit against a workload the release does not contain
	// must fail at submission, not asynchronously in a worker.
	svc := newTestService(t, Options{Shards: -1})
	g := testGraph(t, 60)
	info, err := svc.Registry().Upload("subset", tbiCost, bytes.NewReader(edgeListBytes(t, g)))
	if err != nil {
		t.Fatal(err)
	}
	res, err := svc.Measure(info.ID, MeasureRequest{Eps: 1, Workloads: []string{"tbi"}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"tbd"}, Steps: 10,
	}); err == nil || !strings.Contains(err.Error(), "does not contain") {
		t.Fatalf("job against unmeasured tbd: got %v, want submission-time rejection", err)
	}
	if _, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"no-such-workload"}, Steps: 10,
	}); err == nil {
		t.Fatal("job naming an unregistered workload accepted")
	}
	// The measured subset is accepted.
	st, err := svc.SubmitJob(JobRequest{
		Measurement: res.Measurement.ID, Workloads: []string{"tbi"}, Steps: 10, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Jobs().Get(st.ID); err != nil {
		t.Fatal(err)
	}
}
