package main

// The daemon workload: an in-process wpinqd (service.New with every
// option at its default except Dir) behind a loopback listener, driven
// by closed-loop service.Clients that each repeat one user job: upload,
// measure, submit a durable synthesis job, poll it to the end, download
// the result, scrape /metrics. It is the only workload where the HTTP
// handlers, registry and budget ledger, the store, the job queue,
// checkpoint re-anchoring and internal/obs do most of the work.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"wpinq/internal/graph"
	"wpinq/internal/obs"
	"wpinq/internal/service"
	"wpinq/internal/synth"
)

const (
	daemonNodes           = 300
	shortDaemonNodes      = 60
	daemonClients         = 2
	daemonSteps           = 2000
	daemonCheckpointEvery = 500
	shortDaemonSteps      = 200
	shortCheckpointEvery  = 50
	daemonSetups          = 101
	daemonBootReleases    = 4
	pollEvery             = 10 * time.Millisecond

	// daemonPow is the pow a job runs at when its request sets none.
	daemonPow = 10000
)

// daemon is one in-process wpinqd serving on a loopback port.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	ln     net.Listener
	served chan error
	client *service.Client
}

// startDaemon boots a service over dir (running boot recovery) and
// serves it on a fresh loopback port.
func startDaemon(dir string) (*daemon, error) {
	svc, err := service.New(service.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, ln: ln, served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = service.NewClient("http://" + ln.Addr().String())
	return d, nil
}

// stop shuts the listener and the service down, waits for both, and
// returns how many checkpoints the store still holds.
func (d *daemon) stop() (int, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.svc.Close()
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return len(d.svc.Store().Checkpoints()), err
}

// daemonJob is one user's job request stream: the same protected graph,
// with per-job seeds.
type daemonJob struct {
	edgeList        []byte
	budget          float64
	steps           int
	checkpointEvery int
	seed            int64
}

// jobTimes are the client-side timings of one job.
type jobTimes struct {
	total, upload, measure, submit, queueWait, run, download, scrape time.Duration
	series                                                           int
	dropped                                                          int // isolated nodes the edge-list download cannot carry
}

func (j daemonJob) seedFor(client, k int) int64 {
	return j.seed + int64(client)*1_000_003 + int64(k)*7919
}

// run performs job k of a client and checks its outcome. With tr set it
// records the job as a trace of spans.
func (j daemonJob) run(d *daemon, client, k int, tr *tracer, r *report) (jobTimes, error) {
	var jt jobTimes
	cl := d.client
	seed := j.seedFor(client, k)
	t0 := time.Now()
	info, err := cl.Upload(fmt.Sprintf("c%d-j%d", client, k), j.budget, bytes.NewReader(j.edgeList))
	if err != nil {
		return jt, fmt.Errorf("upload: %w", err)
	}
	t1 := time.Now()
	mr, err := cl.Measure(info.ID, service.MeasureRequest{Eps: fitEps, Workloads: fitWorkloads, Bucket: fitBucket, Seed: seed})
	if err != nil {
		return jt, fmt.Errorf("measure: %w", err)
	}
	t2 := time.Now()
	st, err := cl.SubmitJob(service.JobRequest{Measurement: mr.Measurement.ID, Steps: j.steps, CheckpointEvery: j.checkpointEvery, Seed: seed})
	if err != nil {
		return jt, fmt.Errorf("submit: %w", err)
	}
	t3 := time.Now()
	var running time.Time
	for !st.Terminal() {
		time.Sleep(pollEvery)
		if st, err = cl.Job(st.ID); err != nil {
			return jt, fmt.Errorf("poll: %w", err)
		}
		if st.State != service.JobQueued && running.IsZero() {
			running = time.Now()
		}
	}
	t4 := time.Now()
	g, err := cl.JobResult(st.ID)
	if err != nil {
		return jt, fmt.Errorf("download: %w", err)
	}
	t5 := time.Now()
	page, err := cl.Metrics()
	if err != nil {
		return jt, fmt.Errorf("scrape: %w", err)
	}
	t6 := time.Now()

	r.check(st.State == service.JobDone, "job %s ended %s: %s", st.ID, st.State, st.Error)
	dropped := checkDownload(d.svc, st, g, r)
	jt = jobTimes{
		dropped: dropped,
		total:   t5.Sub(t0), upload: t1.Sub(t0), measure: t2.Sub(t1), submit: t3.Sub(t2),
		queueWait: running.Sub(t3), run: t4.Sub(running), download: t5.Sub(t4), scrape: t6.Sub(t5),
		series: countSeries(page),
	}
	if tr != nil {
		trace := uint64(client+1)<<32 | uint64(k+1)
		root := trace << 4
		at := func(t time.Time) int64 { return int64(t.Sub(tr.epoch)) }
		for i, s := range []struct {
			name       string
			start, end time.Time
		}{
			{"service.upload", t0, t1}, {"service.measure", t1, t2}, {"service.submit", t2, t3},
			{"service.queue_wait", t3, running}, {"service.run", running, t4},
			{"service.download", t4, t5}, {"obs.scrape", t5, t6},
		} {
			tr.add(s.name, trace, root|uint64(i+1), root, at(s.start), at(s.end))
		}
		tr.add("daemon.job", trace, root, 0, at(t0), at(t6))
	}
	return jt, nil
}

// checkDownload verifies a downloaded result against the job's status
// and the server-side result graph. The edge-list format has one line per
// edge, so isolated vertices, which JobStatus.ResultNodes counts, cannot
// be downloaded: the server-side graph must match the status exactly,
// and the download must have exactly the server graph's edges and its
// non-isolated nodes. It returns the number of nodes the download lost.
func checkDownload(svc *service.Service, st service.JobStatus, got *graph.Graph, r *report) int {
	want, _, err := svc.Jobs().Result(st.ID)
	if err != nil {
		r.check(false, "job %s: server-side result: %v", st.ID, err)
		return 0
	}
	r.check(want.NumNodes() == st.ResultNodes && want.NumEdges() == st.ResultEdges,
		"job %s: result has %d nodes/%d edges, status says %d/%d", st.ID, want.NumNodes(), want.NumEdges(), st.ResultNodes, st.ResultEdges)
	connected := 0
	for _, v := range want.Nodes() {
		if want.Degree(v) > 0 {
			connected++
		}
	}
	same := got.NumEdges() == want.NumEdges() && got.NumNodes() == connected
	for _, e := range want.EdgeList() {
		if !same {
			break
		}
		same = got.HasEdge(e.Src, e.Dst)
	}
	r.check(same, "job %s: downloaded %d nodes/%d edges, server result has %d connected nodes/%d edges",
		st.ID, got.NumNodes(), got.NumEdges(), connected, want.NumEdges())
	return want.NumNodes() - got.NumNodes()
}

// countSeries counts the sample lines of a Prometheus text page.
func countSeries(page []byte) int {
	n := 0
	for _, l := range strings.Split(string(page), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			n++
		}
	}
	return n
}

// clientRun is what one closed-loop client did.
type clientRun struct {
	jobs   []jobTimes
	tracer *tracer
}

// drive runs the closed-loop clients until the deadline (each finishes
// its job in flight) or, when perClient is set, for exactly that many
// jobs each. It returns each client's record and the time the last job
// finished.
func drive(d *daemon, j daemonJob, deadline time.Time, perClient []int, traced bool, r *report) ([]*clientRun, time.Time) {
	epoch := time.Now()
	runs := make([]*clientRun, daemonClients)
	reports := make([]*report, daemonClients)
	var wg sync.WaitGroup
	for c := range runs {
		runs[c] = &clientRun{}
		reports[c] = newReport()
		if traced {
			runs[c].tracer = newTracer(epoch, 256)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, rep := runs[c], reports[c]
			for k := 0; ; k++ {
				if perClient != nil && k >= perClient[c] || perClient == nil && k > 0 && !time.Now().Before(deadline) {
					return
				}
				jt, err := j.run(d, c, k, cl.tracer, rep)
				if err != nil {
					rep.ops(1, 1)
					rep.failures = append(rep.failures, fmt.Sprintf("client %d job %d: %v", c, k, err))
					continue
				}
				rep.ops(1, 0)
				cl.jobs = append(cl.jobs, jt)
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	for _, rep := range reports {
		r.attempted += rep.attempted
		r.failed += rep.failed
		r.failures = append(r.failures, rep.failures...)
	}
	return runs, end
}

func allJobs(runs []*clientRun) []jobTimes {
	var out []jobTimes
	for _, cr := range runs {
		out = append(out, cr.jobs...)
	}
	return out
}

// msOf maps the jobs through f, in milliseconds.
func msOf(jobs []jobTimes, f func(jobTimes) time.Duration) []float64 {
	out := make([]float64, len(jobs))
	for i, jt := range jobs {
		out[i] = float64(f(jt)) / 1e6
	}
	return out
}

func runDaemon(p params, r *report) error {
	n, steps, every := daemonNodes, daemonSteps, daemonCheckpointEvery
	if p.short {
		n, steps, every = shortDaemonNodes, shortDaemonSteps, shortCheckpointEvery
	}
	g, err := graph.HolmeKim(n, 3, 0.5, rand.New(rand.NewSource(graphSeed)))
	if err != nil {
		return err
	}
	var edgeList bytes.Buffer
	if err := graph.WriteEdgeList(&edgeList, g); err != nil {
		return err
	}
	cost := synth.Config{Eps: fitEps, Workloads: fitWorkloads}
	if err := cost.Validate(); err != nil {
		return err
	}
	job := daemonJob{edgeList: edgeList.Bytes(), budget: cost.MeasureCost() * (1 + 1e-6), steps: steps, checkpointEvery: every, seed: walkSeed(p.seed, 0)}

	if err := os.MkdirAll(p.workDir, 0o755); err != nil {
		return err
	}
	base, err := os.MkdirTemp(p.workDir, "daemon-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)

	// Set-up is a restart: boot a service over a store that already holds
	// a few releases, whose boot reads, hashes and describes each one and
	// replays the provenance ledger. An empty store boots in about 0.5 ms,
	// and the median of such boots moved by a third from one run to the
	// next. Half the boots come before the jobs and half after, so the
	// median does not hang on one second of the machine's speed.
	setups, releases := daemonSetups, daemonBootReleases
	if p.short {
		setups, releases = 1, 1
	}
	bootDir := base + "/boot"
	if err := populateStore(bootDir, job, releases); err != nil {
		return err
	}
	var samples []float64
	boot := func(n int) error {
		for range n {
			t := time.Now()
			d, err := startDaemon(bootDir)
			if err != nil {
				return err
			}
			if _, err := d.client.Health(); err != nil {
				d.stop()
				return err
			}
			samples = append(samples, sinceS(t))
			if _, err := d.stop(); err != nil {
				return err
			}
		}
		return nil
	}
	if err := boot(setups - setups/2); err != nil {
		return err
	}

	d, err := startDaemon(base + "/store")
	if err != nil {
		return err
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	r.set("heap_mb", liveHeapMB())
	seconds := p.seconds
	if p.trace {
		seconds /= 2
	}
	var perClient []int
	if p.short {
		perClient = []int{1, 1}
	}
	ctr := newCounters()
	a0, _ := ctr.read()
	start := time.Now()
	runs, end := drive(d, job, start.Add(time.Duration(seconds*float64(time.Second))), perClient, false, r)
	a1, _ := ctr.read()
	jobs := allJobs(runs)
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed: %v", r.failures)
	}
	lat := msOf(jobs, func(jt jobTimes) time.Duration { return jt.total })
	r.set("op_p50_ms", median(lat))
	r.set("ops_per_s", float64(len(jobs))/end.Sub(start).Seconds())
	r.set("allocs_per_op", float64(a1-a0)/float64(len(jobs)))
	r.note("jobs=%d in %.2fs (%.2f jobs/min)", len(jobs), end.Sub(start).Seconds(), 60*float64(len(jobs))/end.Sub(start).Seconds())
	if err := boot(setups / 2); err != nil {
		return err
	}
	r.set("setup_s", median(samples))

	if p.trace {
		r.setTail(lat)
		if err := traceDaemon(d, job, runs, end.Sub(start), r); err != nil {
			return err
		}
	}
	stopped = true
	stale, err := d.stop()
	if err != nil {
		return err
	}
	r.set("service.stale_checkpoints", float64(stale))
	r.note("checkpoints of finished jobs left in the store after Close: %d", stale)
	return nil
}

// populateStore leaves n releases of the job's graph, with seeds no
// client uses, in the store of a stopped service under dir.
func populateStore(dir string, job daemonJob, n int) error {
	d, err := startDaemon(dir)
	if err != nil {
		return err
	}
	for k := 0; k < n && err == nil; k++ {
		var info service.DatasetInfo
		info, err = d.client.Upload(fmt.Sprintf("boot-%d", k), job.budget, bytes.NewReader(job.edgeList))
		if err == nil {
			_, err = d.client.Measure(info.ID, service.MeasureRequest{Eps: fitEps, Workloads: fitWorkloads, Bucket: fitBucket, Seed: job.seedFor(daemonClients, k)})
		}
	}
	if _, serr := d.stop(); err == nil {
		err = serr
	}
	return err
}

// traceDaemon repeats the untraced pass's jobs, client for client, with
// spans, then fits the daemon's job in process to split out the synth
// layer's durable-job costs.
func traceDaemon(d *daemon, job daemonJob, untraced []*clientRun, untracedTime time.Duration, r *report) error {
	perClient := make([]int, len(untraced))
	for c, cr := range untraced {
		perClient[c] = len(cr.jobs)
	}
	ckpt0 := checkpointsWritten()
	start := time.Now()
	runs, end := drive(d, job, time.Time{}, perClient, true, r)
	jobs := allJobs(runs)
	if len(jobs) == 0 {
		return fmt.Errorf("no traced job completed: %v", r.failures)
	}
	r.set("trace.overhead_ratio", end.Sub(start).Seconds()/untracedTime.Seconds())
	r.set("service.checkpoints_per_job", (checkpointsWritten()-ckpt0)/float64(len(jobs)))
	for _, cr := range runs {
		r.spans = append(r.spans, cr.tracer.spans...)
	}
	ms := func(f func(jobTimes) time.Duration) float64 { return median(msOf(jobs, f)) }
	r.set("service.upload_ms", ms(func(jt jobTimes) time.Duration { return jt.upload }))
	r.set("service.measure_ms", ms(func(jt jobTimes) time.Duration { return jt.measure }))
	r.set("service.submit_ms", ms(func(jt jobTimes) time.Duration { return jt.submit }))
	r.set("service.queue_wait_s", ms(func(jt jobTimes) time.Duration { return jt.queueWait })/1e3)
	r.set("service.run_s", ms(func(jt jobTimes) time.Duration { return jt.run })/1e3)
	r.set("service.download_ms", ms(func(jt jobTimes) time.Duration { return jt.download }))
	r.set("obs.scrape_ms", ms(func(jt jobTimes) time.Duration { return jt.scrape }))
	r.set("obs.series", float64(jobs[len(jobs)-1].series))
	dropped := 0
	for _, jt := range jobs {
		dropped += jt.dropped
	}
	r.set("service.download_dropped_nodes", float64(dropped)/float64(len(jobs)))
	return fitLikeTheDaemon(d, job, r)
}

// checkpointsWritten reads the service's count of checkpoints written.
func checkpointsWritten() float64 {
	for _, f := range obs.Default.Snapshot() {
		if f.Name != "wpinq_job_checkpoints_total" {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["outcome"] == "ok" {
				return s.Value
			}
		}
	}
	return 0
}

// fitLikeTheDaemon repeats the daemon's job in process the way the
// service runs it: Phase 0 through the traced replica of synth.Measure,
// which must release the stored bytes, then as the job manager does (load
// the stored release, seed, fit with the service's default executor),
// once durable and once not, timing the synth layer's checkpoint costs.
func fitLikeTheDaemon(d *daemon, job daemonJob, r *report) error {
	seed := job.seedFor(0, 0)
	info, err := d.client.Upload("in-process", job.budget, bytes.NewReader(job.edgeList))
	if err != nil {
		return err
	}
	mr, err := d.client.Measure(info.ID, service.MeasureRequest{Eps: fitEps, Workloads: fitWorkloads, Bucket: fitBucket, Seed: seed})
	if err != nil {
		return err
	}
	release, err := d.client.Measurement(mr.Measurement.ID)
	if err != nil {
		return err
	}
	// The daemon measures with synth.Measure seeded by the request; the
	// traced replica must release the stored bytes.
	g, err := graph.ReadEdgeList(bytes.NewReader(job.edgeList))
	if err != nil {
		return err
	}
	tr := newTracer(time.Now(), 16)
	const trace = 1 << 50 // apart from the jobs' traces
	m, err := traceMeasure(g, synth.Config{Eps: fitEps, Workloads: fitWorkloads, Bucket: fitBucket}, rand.New(rand.NewSource(seed)), tr, trace, trace, 0, r)
	if err != nil {
		return err
	}
	r.spans = append(r.spans, tr.spans...)
	var buf bytes.Buffer
	err = m.Save(&buf)
	r.check(err == nil && bytes.Equal(buf.Bytes(), release), "in-process Phase 0 released other bytes than the daemon")
	var load, seeding time.Duration
	fit := func(every int, onCheckpoint func(*synth.Checkpoint) bool) (time.Duration, error) {
		rng := rand.New(rand.NewSource(seed))
		t := time.Now()
		m, err := synth.LoadMeasurements(bytes.NewReader(release), rng)
		if err != nil {
			return 0, err
		}
		load = time.Since(t)
		t = time.Now()
		seedG, err := synth.SeedGraph(m, rng)
		if err != nil {
			return 0, err
		}
		seeding = time.Since(t)
		t = time.Now()
		res, err := synth.Synthesize(m, seedG, synth.Config{
			Eps: m.Eps, Steps: job.steps, CheckpointEvery: every, OnCheckpoint: onCheckpoint,
		}, rng)
		if err != nil {
			return 0, err
		}
		took := time.Since(t)
		checkDegrees(seedG, res.Synthetic, r)
		return took, nil
	}
	var saves []float64
	var size int
	durable, err := fit(job.checkpointEvery, func(ck *synth.Checkpoint) bool {
		var buf bytes.Buffer
		t := time.Now()
		if err := ck.Save(&buf); err != nil {
			r.check(false, "checkpoint save: %v", err)
			return false
		}
		saves = append(saves, float64(time.Since(t))/1e6)
		size = buf.Len()
		return true
	})
	if err != nil {
		return err
	}
	plain, err := fit(0, nil)
	if err != nil {
		return err
	}
	r.set("synth.load_measurements_ms", float64(load)/1e6)
	r.set("synth.seed_s", seeding.Seconds())
	r.set("synth.checkpoint_save_ms", median(saves))
	r.set("synth.checkpoint_bytes", float64(size))
	r.set("synth.reanchor_ratio", durable.Seconds()/plain.Seconds())
	return traceDaemonWalk(release, seed, r)
}

// traceDaemonWalk measures the mcmc, workload and plan layers on the
// daemon's own fit: the stored release, walked at the default pow on the
// service's default executor (one engine shard per CPU), through the
// fit workloads' traced chains. It keeps only those layers' metrics; the
// others would overwrite the daemon's own.
func traceDaemonWalk(release []byte, seed int64, r *report) error {
	spec := fitSpec{shards: 0, ladder: []float64{daemonPow}, repSteps: fitSerial.repSteps}
	in := &fitInput{spec: spec, cfg: spec.config(false), released: release, loadSeed: seed}
	m, err := in.fresh()
	if err != nil {
		return err
	}
	if in.seedG, err = synth.SeedGraph(m, rand.New(rand.NewSource(seed))); err != nil {
		return err
	}
	walk := newReport()
	if err := traceFit(params{seed: seed}, in, walk); err != nil {
		return err
	}
	for name, v := range walk.values {
		switch layer, _, _ := strings.Cut(name, "."); layer {
		case "mcmc", "workload", "plan", "incremental":
			r.set(name, v)
		}
	}
	r.ops(walk.attempted, walk.failed)
	r.failures = append(r.failures, walk.failures...)
	r.spans = append(r.spans, walk.spans...)
	return nil
}
