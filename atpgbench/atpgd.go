package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

const (
	// jobFaults is the JobRequest's faults.limit.
	jobFaults = 2
	// setupRounds is how many daemons a run starts to measure set-up.
	setupRounds = 201
	// pollEvery is the client's job-status poll interval.
	pollEvery = 10 * time.Millisecond
)

// jobRequest is the fixed request of both atpgd workloads: the built-in
// reduced macro, seed boxes, one engine worker, the first jobFaults
// dictionary faults.
func jobRequest() api.JobRequest {
	return api.JobRequest{
		V:       api.Version,
		Macro:   api.MacroSpec{Builtin: api.MacroSimpleIVConverter},
		Faults:  api.FaultSpec{Limit: jobFaults},
		Options: api.RunOptions{BoxMode: api.BoxModeSeed, Workers: 1},
	}
}

// reference runs the request once through the in-process facade, checks
// its outputs, and returns its encoded result and the solver
// factorizations it took.
func reference(ctx context.Context, req api.JobRequest) (*flowOutput, []byte, uint64, error) {
	f0 := readCounters().solver.Factorizations
	sys, err := repro.SystemFromRequest(ctx, req)
	if err != nil {
		return nil, nil, 0, err
	}
	out := &flowOutput{sys: sys, faults: sys.RequestFaults(), delta: repro.DefaultCompactOptions().Delta}
	if out.sols, err = sys.GenerateAllContext(ctx, out.faults); err != nil {
		return nil, nil, 0, err
	}
	if out.cts, err = sys.CompactContext(ctx, out.sols, repro.DefaultCompactOptions()); err != nil {
		return nil, nil, 0, err
	}
	if out.cov, err = sys.CoverageContext(ctx, repro.TestsOfCompact(out.cts), out.faults); err != nil {
		return nil, nil, 0, err
	}
	fact := readCounters().solver.Factorizations - f0
	b, err := out.encode()
	if err != nil {
		return nil, nil, 0, err
	}
	if err := checkFlow(sys, out.faults, out.sols, out.cts, out.cov, out.delta); err != nil {
		return nil, nil, 0, fmt.Errorf("reference run: %w", err)
	}
	return out, b, fact, nil
}

// daemon is one in-process atpgd on loopback and, in distributed mode,
// its in-process workers.
type daemon struct {
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	cancel  context.CancelFunc
	workers sync.WaitGroup
}

// startDaemon starts a coordinator over dir with two in-process workers
// and returns once both have registered.
func startDaemon(dir string, h func(http.Handler) http.Handler) (*daemon, error) {
	opt := server.Options{
		DataDir:       dir,
		Workers:       1,
		RatePerSec:    -1,
		Distributed:   true,
		ShardSize:     (jobFaults + 1) / 2,
		WorkerLease:   30 * time.Second,
		PollWait:      time.Second,
		FallbackGrace: time.Hour, // the coordinator never computes shards itself
	}
	srv, err := server.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, shutdown(srv))
	}
	handler := srv.Handler()
	if h != nil {
		handler = h(handler)
	}
	// Registration is awaited on the join route's responses, not by
	// polling: a sub-millisecond sleep in an idle Go process lasts a
	// whole millisecond of netpoll timeout, which would dominate the
	// measured start-up.
	joined := make(chan struct{}, 2)
	serve := handler
	handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		serve.ServeHTTP(w, r)
		if r.Method == http.MethodPost && r.URL.Path == "/v1/workers" {
			select {
			case joined <- struct{}{}:
			default:
			}
		}
	})
	d := &daemon{srv: srv, hs: &http.Server{Handler: handler}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(d.served)
		_ = d.hs.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	for _, name := range []string{"alpha", "beta"} {
		d.workers.Add(1)
		go func(name string) {
			defer d.workers.Done()
			_ = server.RunWorker(ctx, server.WorkerOptions{
				Coordinator: d.base,
				Name:        name,
				Logf:        func(string, ...any) {},
			})
		}(name)
	}
	timeout := time.After(30 * time.Second)
	for range 2 {
		select {
		case <-joined:
		case <-timeout:
			return nil, errors.Join(errors.New("workers did not register"), d.stop())
		}
	}
	if n, _, _, _, _ := srv.DistStats(); n != 2 {
		return nil, errors.Join(fmt.Errorf("%d of 2 workers registered", n), d.stop())
	}
	return d, nil
}

func shutdown(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}

// stop drains the daemon (canceling any running job), stops its workers
// and HTTP front, and waits for all of them.
func (d *daemon) stop() error {
	err := shutdown(d.srv)
	d.cancel()
	d.workers.Wait()
	if cerr := d.hs.Close(); err == nil {
		err = cerr
	}
	<-d.served
	return err
}

// jobOutcome is one job as a client saw it.
type jobOutcome struct {
	id       string
	op       float64 // POST /v1/jobs until the result bytes are in hand
	result   []byte
	status   api.JobStatus
	fetchDur float64
}

// client talks to one daemon.
type client struct {
	base string
	http *http.Client
	body []byte
}

// newClient returns a client that submits body, an encoded JobRequest.
func newClient(base string, body []byte) *client {
	return &client{base: base, http: &http.Client{Timeout: 2 * time.Minute}, body: body}
}

// submit posts the request and returns the accepted job's ID.
func (c *client) submit(ctx context.Context) (string, error) {
	var st api.JobStatus
	code, err := c.do(ctx, http.MethodPost, "/v1/jobs", c.body, &st)
	if err != nil {
		return "", err
	}
	if code != http.StatusAccepted {
		return "", fmt.Errorf("submit: status %d", code)
	}
	return st.ID, nil
}

// job submits the request, waits for the job to finish and fetches its
// result.
func (c *client) job(ctx context.Context) (*jobOutcome, error) {
	t0 := time.Now()
	id, err := c.submit(ctx)
	if err != nil {
		return nil, err
	}
	out := &jobOutcome{id: id}
	for {
		if _, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out.status); err != nil {
			return nil, err
		}
		if out.status.State.Terminal() {
			break
		}
		time.Sleep(pollEvery)
	}
	if out.status.State != api.StateSucceeded {
		return nil, fmt.Errorf("job %s ended %s: %s", id, out.status.State, out.status.Error)
	}
	t1 := time.Now()
	var raw json.RawMessage
	code, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &raw)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("result of %s: status %d", id, code)
	}
	out.result = raw
	out.op = time.Since(t0).Seconds()
	out.fetchDur = time.Since(t1).Seconds()
	return out, nil
}

// do sends one request and decodes a JSON response into out.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if raw, ok := out.(*json.RawMessage); ok {
		*raw = data
		return resp.StatusCode, nil
	}
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return 0, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, nil
}

// measureSetup starts setupRounds daemons, each timed from start until
// it reports itself ready to accept jobs (GET /readyz) with every worker
// registered, and stops each again. Submitting the first job is left
// out: it is part of the first operation, and it syncs the job's record
// to disk, whose latency varies tenfold from one call to the next.
// Every daemon starts over the same empty data directory, as a
// restarted daemon does: creating a fresh directory tree each time would
// add file-system time that varied threefold between runs.
func measureSetup(ctx context.Context, env *benchEnv) ([]float64, error) {
	var setup []float64
	dir := filepath.Join(env.dir, "setup")
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		d, err := startDaemon(dir, nil)
		if err != nil {
			return nil, err
		}
		var raw json.RawMessage
		code, err := newClient(d.base, nil).do(ctx, http.MethodGet, "/readyz", nil, &raw)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("readyz: status %d: %s", code, raw)
		}
		setup = append(setup, time.Since(t0).Seconds())
		if err = errors.Join(err, d.stop()); err != nil {
			return nil, fmt.Errorf("set-up round %d: %w", i, err)
		}
	}
	return setup, nil
}

// atpgdDist drives a coordinator with two workers from one closed-loop
// client. Each job is followed by its journal audit, an operation of
// its own.
func atpgdDist(ctx context.Context, env *benchEnv) (*runStats, error) {
	req := jobRequest()
	ref, refBytes, refFact, err := reference(ctx, req)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rs := &runStats{coverage: ref.cov.Percent(), tests: len(ref.cts)}
	if rs.setup, err = measureSetup(ctx, env); err != nil {
		return nil, err
	}

	tr := newLayerTrace(env)
	var routes *routeStats
	var wrap func(http.Handler) http.Handler
	if env.trace {
		routes = newRouteStats()
		wrap = routes.wrap
	}
	d, err := startDaemon(filepath.Join(env.dir, "daemon"), wrap)
	if err != nil {
		return nil, err
	}
	if err := tr.start(); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	routes.reset() // count the measured jobs' traffic only, not worker registration

	var outcomes []*jobOutcome
	var journals [][]byte
	record := func(o *jobOutcome, journal []byte, jobErr, auditErr error) {
		rs.attempted++
		if jobErr != nil {
			rs.failed++
			rs.unexpected++
			logf("job failed: %v", jobErr)
			return
		}
		logf("job %s: %.3fs", o.id, o.op)
		outcomes = append(outcomes, o)
		rs.ops = append(rs.ops, o.op)
		rs.faults += len(ref.faults)
		journals = append(journals, journal)
		rs.attempted++ // the journal audit, run only on a job that passed
		if auditErr != nil {
			rs.failed++
			logf("journal audit of %s failed: %v", o.id, auditErr)
		}
	}

	before := tr.counters()
	c0, start := cpuSeconds(), time.Now()
	c := newClient(d.base, body)
	for first := true; first || time.Since(start) < env.seconds; first = false {
		o, err := c.job(ctx)
		var journal []byte
		if err == nil {
			err = checkBytes(o.result, refBytes)
		}
		if err == nil {
			journal, err = readJournal(d.srv, o.id)
		}
		var auditErr error
		if err == nil {
			auditErr = auditJournal(journal)
		}
		record(o, journal, err, auditErr)
	}
	rs.wall = time.Since(start).Seconds()
	rs.cpu = cpuSeconds() - c0
	tr.add(tr.counters().sub(before))
	if err := d.stop(); err != nil {
		return nil, err
	}
	if !env.trace {
		return rs, nil
	}
	L, err := tr.finish(rs.faults)
	if err != nil {
		return nil, err
	}
	serviceLayers(L, routes, outcomes, journals, rs.faults)
	distLayers(L, routes, journals, refFact, tr.total.solver.Factorizations, len(outcomes))
	rs.layers = L
	return rs, nil
}

// readJournal returns a finished job's journal file.
func readJournal(srv *server.Server, id string) ([]byte, error) {
	paths, err := srv.Store().Job(id)
	if err != nil {
		return nil, err
	}
	return os.ReadFile(paths.Journal)
}

// serviceLayers fills the service and observability metrics of an atpgd
// run from the route timings, job statuses and journals.
func serviceLayers(L map[string]float64, routes *routeStats, outs []*jobOutcome, journals [][]byte, faults int) {
	var queue, service, fetch []float64
	resultBytes := 0
	for _, o := range outs {
		st := o.status
		if st.Started != nil && st.Finished != nil {
			queue = append(queue, st.Started.Sub(st.Created).Seconds())
			service = append(service, st.Finished.Sub(*st.Started).Seconds())
		}
		fetch = append(fetch, o.fetchDur)
		resultBytes = len(o.result)
	}
	L["server.submit_s"] = median(routes.durations("POST /v1/jobs"))
	L["server.queue_wait_s"] = median(queue)
	L["server.service_s"] = median(service)
	L["server.result_fetch_s"] = median(fetch)
	L["server.result_bytes"] = float64(resultBytes)

	total := 0
	for _, j := range journals {
		total += len(j)
	}
	L["obs.journal_bytes_per_fault"] = ratio(float64(total), float64(faults))
}

// distLayers fills the distribution metrics from the stitched journals
// and the coordinator/worker route traffic, and the generating sessions'
// engine metrics from the shard journals the workers post.
func distLayers(L map[string]float64, routes *routeStats, journals [][]byte, refFact, fact uint64, jobs int) {
	var wait, service, tail []float64
	requeues := 0
	for _, j := range journals {
		ev := parseEvents(j)
		enqueued := 0.0 // end of the coordinator's box building
		coordSpans := map[uint64]bool{}
		assigned := map[string]float64{}
		lastDone, end := 0.0, 0.0
		for _, e := range ev {
			ts := nsToS(e.TS)
			shard, _ := e.Attrs["shard"].(string)
			switch {
			case e.Type == obs.TypeSpanStart && e.Name == "box-build" && shard == "":
				coordSpans[e.Span] = true
			case e.Type == obs.TypeSpanEnd && coordSpans[e.Span]:
				enqueued = max(enqueued, ts)
			case e.Type == obs.TypeEvent && e.Name == "shard_assign":
				assigned[shard] = ts
				wait = append(wait, ts-enqueued)
			case e.Type == obs.TypeEvent && e.Name == "shard_done":
				service = append(service, ts-assigned[shard])
				lastDone = max(lastDone, ts)
			case e.Type == obs.TypeEvent && e.Name == "shard_requeue":
				requeues++
			case e.Type == obs.TypeRunEnd:
				end = ts
			}
		}
		tail = append(tail, end-lastDone)
	}
	L["dist.shard_wait_s"] = median(wait)
	L["dist.shard_service_s"] = median(service)
	L["dist.merge_tail_s"] = median(tail)
	L["dist.work_ratio"] = ratio(float64(fact), float64(refFact)*float64(jobs))
	L["dist.requeues_per_job"] = ratio(float64(requeues), float64(jobs))
	n, b := routes.workerTraffic()
	L["dist.http_requests_per_job"] = ratio(float64(n), float64(jobs))
	L["dist.wire_bytes_per_job"] = ratio(float64(b), float64(jobs))

	// Shard sessions' engine metrics travel in the shard results' journals.
	var miss, optimize, impact, e2e []float64
	for _, body := range routes.shardResults() {
		var res api.ShardResult
		if json.Unmarshal(body, &res) != nil {
			continue
		}
		if m, ok := runEndMetrics([]byte(res.Journal)); ok {
			lookups := m.Cache.Hits + m.Cache.Misses + m.Cache.Shared
			miss = append(miss, ratio(float64(m.Cache.Misses), float64(lookups)))
			optimize = append(optimize, phaseP50(m, repro.PhaseOptimize))
			impact = append(impact, phaseP50(m, repro.PhaseImpact))
			e2e = append(e2e, phaseP50(m, core.PhaseFaultE2E))
		}
	}
	L["engine.cache_miss_ratio"] = median(miss)
	L["core.optimize_p50_s"] = median(optimize)
	L["core.impact_loop_p50_s"] = median(impact)
	L["engine.fault_e2e_p50_s"] = median(e2e)
}

// parseEvents decodes a JSONL journal, skipping undecodable lines.
func parseEvents(data []byte) []obs.Event {
	var evs []obs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		var ev obs.Event
		if json.Unmarshal(sc.Bytes(), &ev) == nil {
			evs = append(evs, ev)
		}
	}
	return evs
}

// runEndMetrics returns the engine metrics snapshot of a journal's
// run_end record.
func runEndMetrics(journal []byte) (api.MetricsSnapshot, bool) {
	var m api.MetricsSnapshot
	evs := parseEvents(journal)
	if len(evs) == 0 || evs[len(evs)-1].Type != obs.TypeRunEnd {
		return m, false
	}
	raw, err := json.Marshal(evs[len(evs)-1].Attrs["metrics"])
	if err != nil || json.Unmarshal(raw, &m) != nil {
		return m, false
	}
	return m, true
}

func phaseP50(m api.MetricsSnapshot, name string) float64 {
	for _, p := range m.Phases {
		if p.Name == name && p.Latency != nil {
			return nsToS(p.Latency.P50)
		}
	}
	return 0
}

// routeStats times every HTTP route of a traced daemon from a handler
// wrapped around server.Handler() and counts the bytes each carries.
type routeStats struct {
	mu      sync.Mutex
	dur     map[string][]float64
	count   map[string]int
	bytes   map[string]int64
	results [][]byte // shard result bodies posted by workers
}

func newRouteStats() *routeStats {
	return &routeStats{dur: map[string][]float64{}, count: map[string]int{}, bytes: map[string]int64{}}
}

func (rt *routeStats) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		var body []byte
		if route == "POST /v1/workers/{id}/result" {
			data, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			body = data
			r.Body = io.NopCloser(bytes.NewReader(data))
		}
		cw := &countingResponse{ResponseWriter: w}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		d := time.Since(t0).Seconds()
		rt.mu.Lock()
		defer rt.mu.Unlock()
		rt.dur[route] = append(rt.dur[route], d)
		rt.count[route]++
		rt.bytes[route] += max(r.ContentLength, 0) + cw.n
		if body != nil {
			rt.results = append(rt.results, body)
		}
	})
}

// reset forgets everything recorded so far; a nil routeStats is a no-op.
func (rt *routeStats) reset() {
	if rt == nil {
		return
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.dur, rt.count, rt.bytes, rt.results = map[string][]float64{}, map[string]int{}, map[string]int64{}, nil
}

func (rt *routeStats) durations(route string) []float64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]float64(nil), rt.dur[route]...)
}

// workerTraffic returns the requests and bytes of the coordinator/worker
// protocol routes.
func (rt *routeStats) workerTraffic() (n int, b int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for route, c := range rt.count {
		if strings.Contains(route, "/v1/workers") {
			n += c
			b += rt.bytes[route]
		}
	}
	return n, b
}

func (rt *routeStats) shardResults() [][]byte {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.results
}

// routeOf names a request's route with its path parameters elided.
func routeOf(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if len(parts) >= 3 && parts[0] == "v1" && (parts[1] == "jobs" || parts[1] == "workers") {
		parts[2] = "{id}"
	}
	return r.Method + " /" + strings.Join(parts, "/")
}

// countingResponse counts the body bytes a handler writes.
type countingResponse struct {
	http.ResponseWriter
	n int64
}

func (c *countingResponse) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingResponse) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
