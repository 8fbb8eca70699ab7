package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tofumd/internal/core"
	"tofumd/internal/jobfarm"
	"tofumd/internal/md/restart"
)

const (
	// segmentStarts is how many resumed segments a run builds; setup_s is
	// the median of their core.Start times.
	segmentStarts = 9
	// pollEvery is the clients' status-poll interval.
	pollEvery = 2 * time.Millisecond
	// tracedSuffix marks the jobs of a traced run whose spans are recorded;
	// the others run untraced, for trace.overhead_frac.
	tracedSuffix = ".traced"
)

// service is one running farm behind a loopback HTTP listener.
type service struct {
	farm *jobfarm.Farm
	srv  *http.Server
	url  string
	dir  string
	done chan error
}

// startService opens a journal under dir, starts a one-worker farm with the
// given runner, serves its handler on 127.0.0.1 and waits for /healthz.
func startService(dir string, runner jobfarm.Runner, client *http.Client) (*service, error) {
	jn, err := jobfarm.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	farm, err := jobfarm.New(jobfarm.Config{Workers: 1, Journal: jn, Runner: runner})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		farm.Shutdown(context.Background())
		return nil, err
	}
	sv := &service{farm: farm, srv: &http.Server{Handler: farm.Handler()}, url: "http://" + ln.Addr().String(), dir: dir, done: make(chan error, 1)}
	go func() { sv.done <- sv.srv.Serve(ln) }()
	resp, err := client.Get(sv.url + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		sv.stop()
		return nil, err
	}
	return sv, nil
}

// stop shuts the listener and the farm down, waits for both, and removes
// the journal.
func (sv *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := sv.srv.Shutdown(ctx)
	if serr := <-sv.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if ferr := sv.farm.Shutdown(ctx); err == nil {
		err = ferr
	}
	if rerr := os.RemoveAll(sv.dir); err == nil {
		err = rerr
	}
	return err
}

// farmTap wraps the farm's MD runner from outside: it notes when each job
// first starts, counts committed segments and preemptions, and records an
// attempt span for traced jobs.
type farmTap struct {
	tr *tracer

	mu         sync.Mutex
	firstStart map[string]time.Time
	segments   int
	preempted  int
}

func (ft *farmTap) runner(ctx context.Context, a jobfarm.Attempt, preempt <-chan struct{}) jobfarm.Outcome {
	ft.mu.Lock()
	if _, ok := ft.firstStart[a.JobID]; !ok {
		ft.firstStart[a.JobID] = time.Now()
	}
	ft.mu.Unlock()
	var tr *tracer
	if strings.HasSuffix(a.Spec.Name, tracedSuffix) {
		tr = ft.tr
	}
	op := jobOp(a.JobID)
	sp := tr.begin("jobfarm", "MDRunner attempt", 0, op)
	defer tr.end(sp)
	commit := a.Commit
	a.Commit = func(steps int, snap *restart.Snapshot) {
		ft.mu.Lock()
		ft.segments++
		ft.mu.Unlock()
		id := tr.begin("jobfarm", "commit", sp, op)
		if commit != nil {
			commit(steps, snap)
		}
		tr.end(id)
	}
	out := jobfarm.MDRunner(ctx, a, preempt)
	if out.Kind == jobfarm.OutcomePreempted {
		ft.mu.Lock()
		ft.preempted++
		ft.mu.Unlock()
	}
	return out
}

// jobOp maps a farm job ID ("job-0007") to a span operation ID that cannot
// collide with the MD repeats' and probes' small IDs.
func jobOp(id string) int {
	var n int
	fmt.Sscanf(id, "job-%d", &n)
	return 100000 + n
}

// jobRecord is what a client observed for one job.
type jobRecord struct {
	client    int
	kind      string // spec name without the traced suffix
	traced    bool
	posted    time.Time
	latency   time.Duration
	status    jobfarm.JobStatus
	problems  checks
	submitted bool
}

// tally is shared by the clients of one run.
type tally struct {
	mu sync.Mutex
	// shed counts 429 responses; finished counts jobs polled to a
	// terminal state.
	shed, finished int
}

// client runs one closed loop: submit a job, poll until it is terminal,
// repeat until the deadline has passed and the run has its minimum job
// count (or the hard stop is reached).
type client struct {
	id     int
	http   *http.Client
	url    string
	tr     *tracer
	heap   *liveHeap
	tally  *tally
	specs  []jobfarm.Spec
	traced bool
}

func (cl *client) loop(deadline, hardStop time.Time, minJobs int) []jobRecord {
	var recs []jobRecord
	count := map[string]int{}
	for i := 0; ; i++ {
		cl.tally.mu.Lock()
		enough := cl.tally.finished >= minJobs
		cl.tally.mu.Unlock()
		now := time.Now()
		if now.After(hardStop) || (now.After(deadline) && enough) {
			return recs
		}
		sp := cl.specs[i%len(cl.specs)]
		// Every other job of each spec is traced.
		traced := cl.traced && count[sp.Name]%2 == 1
		count[sp.Name]++
		if traced {
			sp.Name += tracedSuffix
		}
		rec := cl.job(sp, traced)
		if rec.submitted {
			cl.tally.mu.Lock()
			cl.tally.finished++
			cl.tally.mu.Unlock()
		} else {
			time.Sleep(10 * pollEvery) // shed: back off before resubmitting
		}
		recs = append(recs, rec)
	}
}

// job submits one spec over HTTP and polls its status to a terminal state.
func (cl *client) job(sp jobfarm.Spec, traced bool) jobRecord {
	rec := jobRecord{client: cl.id, kind: strings.TrimSuffix(sp.Name, tracedSuffix), traced: traced}
	var tr *tracer
	if traced {
		tr = cl.tr
	}
	body, _ := json.Marshal(sp)
	rec.posted = time.Now()
	var id string
	code, err := cl.do(http.MethodPost, "/jobs", body, &struct {
		ID *string `json:"id"`
	}{&id})
	if code == http.StatusTooManyRequests {
		cl.tally.mu.Lock()
		cl.tally.shed++
		cl.tally.mu.Unlock()
	}
	rec.problems.need(err == nil && code == http.StatusAccepted && id != "", "POST /jobs: status %d, err %v", code, err)
	if len(rec.problems) > 0 {
		return rec
	}
	rec.submitted = true
	op := jobOp(id)
	root := tr.begin("bench", "job "+rec.kind, 0, op)
	defer tr.end(root)
	for {
		sp := tr.begin("jobfarm", "GET /jobs/{id}", root, op)
		code, err := cl.do(http.MethodGet, "/jobs/"+id, nil, &rec.status)
		tr.end(sp)
		cl.heap.observe()
		if err != nil || code != http.StatusOK {
			rec.problems.need(false, "GET /jobs/%s: status %d, err %v", id, code, err)
			return rec
		}
		if rec.status.State.Terminal() {
			rec.latency = time.Since(rec.posted)
			return rec
		}
		time.Sleep(pollEvery)
	}
}

// do sends one request and decodes a JSON reply into out.
func (cl *client) do(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, cl.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// segmentSetups times core.Start of sp's second segment, resumed from the
// checkpoint its first segment commits, as the farm's MD runner does.
func segmentSetups(sp jobfarm.Spec, chk *checker) ([]float64, error) {
	spec, err := jobRunSpec(sp, sp.CheckpointEvery)
	if err != nil {
		return nil, err
	}
	run, err := core.Start(spec)
	if err != nil {
		return nil, fmt.Errorf("segment of %s: %w", sp.Name, err)
	}
	for run.StepsDone() < run.StepsPlanned() {
		run.Step()
	}
	spec.Restart = run.Capture(run.StepsDone())
	run.Close()
	var times []float64
	var c checks
	// The first two builds warm the heap and are not timed.
	for k := -2; k < segmentStarts; k++ {
		t0 := time.Now()
		r, err := core.Start(spec)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("resume segment of %s: %w", sp.Name, err)
		}
		c.need(r.Sim().TotalAtoms() == len(spec.Restart.Atoms), "resumed %d of %d atoms", r.Sim().TotalAtoms(), len(spec.Restart.Atoms))
		r.Close()
		if k >= 0 {
			times = append(times, d.Seconds())
		}
	}
	chk.op("segment set-up", dedupe(c))
	return times, nil
}

// realizedAtoms builds sp's simulation once and returns its atom count.
func realizedAtoms(sp jobfarm.Spec) (int, error) {
	spec, err := jobRunSpec(sp, sp.Steps)
	if err != nil {
		return 0, err
	}
	run, err := core.Start(spec)
	if err != nil {
		return 0, fmt.Errorf("build %s: %w", sp.Name, err)
	}
	defer run.Close()
	return run.Sim().TotalAtoms(), nil
}

// runTofud measures the job service: an in-process farm (one worker,
// journal on disk) served over loopback HTTP, driven by two closed-loop
// clients. Client 0 submits best-effort LJ jobs on the MPI 3-stage path;
// client 1 alternates priority EAM jobs with the same LJ jobs, so priority
// jobs preempt running best-effort ones.
func runTofud(cfg config, tr *tracer, chk *checker) (outcome, error) {
	out := outcome{metrics: map[string]float64{}, details: map[string]any{}}
	ljJob, eamJob := tofudJobs(cfg.tiny)
	minJobs := 40
	if cfg.tiny {
		minJobs = 4
	}
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}, Timeout: 60 * time.Second}
	defer hc.CloseIdleConnections()
	tap := &farmTap{tr: tr, firstStart: map[string]time.Time{}}
	base := filepath.Join(cfg.outDir(), fmt.Sprintf("journal-%d-%d", os.Getpid(), cfg.seed))

	// Set-up: the farm's runner rebuilds the simulation from the last
	// checkpoint at every commit, so setup_s is the median host time of
	// core.Start for an LJ job segment resumed from its first checkpoint.
	setups, err := segmentSetups(ljJob, chk)
	if err != nil {
		return out, err
	}
	// The lattice rounds a job's requested atom count; atom_steps_per_s
	// counts the atoms the jobs really simulate.
	atomsOf := map[string]int{}
	for _, sp := range []jobfarm.Spec{ljJob, eamJob} {
		if atomsOf[sp.Name], err = realizedAtoms(sp); err != nil {
			return out, err
		}
	}
	t0 := time.Now()
	sv, err := startService(base, tap.runner, hc)
	if err != nil {
		return out, fmt.Errorf("start service: %w", err)
	}
	out.details["service_start_s"] = time.Since(t0).Seconds()
	defer os.RemoveAll(base)

	runtime.GC()
	heap := newLiveHeap()
	gw := startGCWindow()
	// The seed sets the mix's phase: whether client 1 opens with its
	// priority job or with an LJ job.
	mixed := []jobfarm.Spec{eamJob, ljJob}
	if cfg.seed%2 == 1 {
		mixed = []jobfarm.Spec{ljJob, eamJob}
	}
	var counts tally
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	hardStop := start.Add(time.Duration(3*cfg.seconds*float64(time.Second)) + 30*time.Second)
	clients := []*client{
		{id: 0, http: hc, url: sv.url, tr: tr, heap: heap, tally: &counts, specs: []jobfarm.Spec{ljJob}, traced: tr != nil},
		{id: 1, http: hc, url: sv.url, tr: tr, heap: heap, tally: &counts, specs: mixed, traced: tr != nil},
	}
	recs := make([][]jobRecord, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client) {
			defer wg.Done()
			recs[i] = cl.loop(deadline, hardStop, minJobs)
		}(i, cl)
	}
	wg.Wait()
	window := time.Since(start)
	gw.stop()
	if err := sv.stop(); err != nil {
		return out, fmt.Errorf("stop service: %w", err)
	}

	var all []jobRecord
	for _, rs := range recs {
		all = append(all, rs...)
	}
	if cfg.corrupt == "job" {
		for i := range all {
			if all[i].status.State == jobfarm.Done {
				all[i].status.State = jobfarm.Failed
				break
			}
		}
	}
	virt := map[string]jobfarm.JobStatus{}
	var lats, doneAt, waits, ljTraced, ljPlain []float64
	var atomSteps float64
	var doneJobs, preemptions, retries, steps int
	for _, r := range all {
		c := r.problems
		if r.submitted {
			st := r.status
			c.need(st.State == jobfarm.Done, "job %s ended %s: %s", st.ID, st.State, st.Error)
			c.need(st.StepsDone == st.Steps, "job %s did %d of %d steps", st.ID, st.StepsDone, st.Steps)
			if st.State == jobfarm.Done {
				doneJobs++
				preemptions += st.Preemptions
				retries += st.Retries
				steps += st.StepsDone
				lats = append(lats, r.latency.Seconds())
				doneAt = append(doneAt, r.posted.Add(r.latency).Sub(start).Seconds())
				atomSteps += float64(atomsOf[r.kind] * st.StepsDone)
				if first, ok := virt[r.kind]; !ok {
					virt[r.kind] = st
				} else {
					c.need(sameBits(st.ElapsedVirtual, first.ElapsedVirtual) && sameBits(st.PerfNsPerDay, first.PerfNsPerDay),
						"job %s (%d preemptions) elapsed_virtual_s %v differs from %s's %v",
						st.ID, st.Preemptions, st.ElapsedVirtual, first.ID, first.ElapsedVirtual)
				}
				// Client 0's LJ jobs alternate traced and untraced under
				// the same mix, so their latencies compare.
				if r.client == 0 {
					if r.traced {
						ljTraced = append(ljTraced, r.latency.Seconds())
					} else {
						ljPlain = append(ljPlain, r.latency.Seconds())
					}
				}
			}
			tap.mu.Lock()
			if t, ok := tap.firstStart[st.ID]; ok {
				waits = append(waits, t.Sub(r.posted).Seconds())
			}
			tap.mu.Unlock()
		}
		chk.op("job "+r.kind, c)
	}
	tap.mu.Lock()
	segments, runnerPreempted := tap.segments, tap.preempted
	tap.mu.Unlock()
	var run checks
	run.need(preemptions >= 1, "no job was preempted: the run did not exercise checkpoint preemption")
	run.need(preemptions == runnerPreempted, "jobs report %d preemptions, the runner yielded %d times", preemptions, runnerPreempted)
	run.need(doneJobs >= minJobs, "only %d jobs completed, want at least %d", doneJobs, minJobs)
	_, ok := virt[ljJob.Name]
	run.need(ok, "no %s job completed", ljJob.Name)
	chk.op("tofud run", run)

	m := out.metrics
	m["atom_steps_per_s"] = atomSteps / window.Seconds()
	m["setup_s"] = median(setups)
	m["peak_heap_mb"] = heap.peakMiB()
	m["virtual_perf_per_day"] = virt[ljJob.Name].PerfNsPerDay
	m["jobs_per_s"] = float64(doneJobs) / window.Seconds()
	m["job_latency_p50_s"] = quantile(lats, 0.50)
	m["job_latency_p75_s"] = quantile(lats, 0.75)
	m["jobfarm.queue_wait_s_p50"] = median(waits)
	m["jobfarm.segments"] = float64(segments)
	m["jobfarm.preemptions"] = float64(preemptions)
	m["jobfarm.shed_429"] = float64(counts.shed)
	m["jobfarm.retries"] = float64(retries)
	if steps > 0 {
		m["go.alloc_mb_per_step"] = gw.allocMiB() / float64(steps)
	}
	m["go.gc_cycles"] = gw.cycles()
	m["go.gc_pause_ms"] = gw.pauseMs()
	if len(ljTraced) > 0 && len(ljPlain) > 0 {
		m["trace.overhead_frac"] = median(ljTraced)/median(ljPlain) - 1
	}
	out.details["samples"] = map[string][]float64{"setup_s": setups, "job_latency_s": lats, "job_done_at_s": doneAt}
	out.details["jobs_done"] = doneJobs
	out.details["latency_samples"] = len(lats)
	out.details["preemptions"] = preemptions
	out.details["window_s"] = window.Seconds()
	out.details["virtual_perf_unit"] = "tau/day"

	if tr != nil {
		stateSpec, err := jobRunSpec(ljJob, ljJob.Steps)
		if err != nil {
			return out, err
		}
		putSpec, err := jobRunSpec(eamJob, eamJob.Steps)
		if err != nil {
			return out, err
		}
		rp, err := probeWorkload(cfg, tr, chk, out, driftLJ, stateSpec, putSpec, stateSpec, 1)
		if err != nil {
			return out, err
		}
		stepMetrics(m, []*repeat{rp})
		if math.IsNaN(m["sim.rebuild_step_ms_p50"]) {
			return out, fmt.Errorf("probe repeat of %s rebuilt no neighbor lists", ljJob.Name)
		}
	}
	return out, nil
}
