package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"symsim/internal/cluster"
	"symsim/internal/core"
	"symsim/internal/csm"
	"symsim/internal/obs"
	"symsim/internal/report"
	"symsim/internal/service"
	"symsim/internal/vvp"
)

// parallelism is the one value every parallel knob is fixed at — path
// workers, fleet workers, service job workers, HTTP clients, GOMAXPROCS —
// so counts compare across hosts.
const parallelism = 2

// opTimeout fails an operation the daemons never complete; the slowest
// one takes under a second.
const opTimeout = 2 * time.Minute

type kind int

const (
	kindEngine  kind = iota // Analyze called in-process, one cell after another
	kindFleet               // runs on a coordinator + worker fleet over loopback HTTP
	kindService             // jobs through the symsimd job API over loopback HTTP
)

// workload is one set of inputs the benchmark runs. All use merge-all,
// MemX verilog and the shipped platforms.
type workload struct {
	Name    string
	Why     string // one line, copied into BENCHMARK.json
	Kind    kind
	Cells   []cell
	Engine  vvp.Engine
	Workers int
	// Gate lists the workload in BENCHMARK.json, where the PR driver holds
	// every end-to-end metric to its bound. Only workloads that keep one
	// core busy are gated: on the 2-core shared reference host a workload
	// that needs both cores runs 40 % slower for minutes on end whenever a
	// neighbour takes one (README, "Sizing"). The others run with the rest
	// of the suite here and are compared with -compare.
	Gate bool
}

func pick(benches ...string) []cell {
	var out []cell
	for _, c := range table4() {
		for _, b := range benches {
			if c.Bench == b {
				out = append(out, c)
			}
		}
	}
	return out
}

// straightline are the Table-4 cells that explore a single path: nothing
// forks, so the CSM, save/restore and the scheduler do no work.
func straightline() []cell {
	return append(pick("tea8"), cell{report.BM32, "mult"}, cell{report.OMSP430, "mult"})
}

var workloads = []workload{
	{
		Name: "table4_kernel", Kind: kindEngine, Cells: table4(), Engine: vvp.EngineKernel, Workers: 1, Gate: true,
		Why: "all 18 Table-4 cells, kernel engine, one worker: the north-star workload and the deterministic reference for the others",
	},
	{
		Name: "table4_batch", Kind: kindEngine, Cells: table4(), Engine: vvp.EngineBatch, Workers: 1, Gate: true,
		Why: "same 18 cells on the 64-lane batch engine: uses vvp and core differently, and decides the win-or-delete rule for -engine=batch",
	},
	{
		Name: "straightline_kernel", Kind: kindEngine, Cells: straightline(), Engine: vvp.EngineKernel, Workers: 1, Gate: true,
		Why: "the five single-path cells: the gate sweep does all the work, so a fork, CSM or scheduler change must show no change here",
	},
	{
		Name: "forkheavy_workers", Kind: kindEngine, Cells: pick("Div", "inSort", "tHold"), Engine: vvp.EngineKernel, Workers: parallelism,
		Why: "the nine fork-heavy cells on two path workers: per-path overhead and the scheduler lock are the largest share",
	},
	{
		Name: "table4_fleet", Kind: kindFleet, Cells: table4(), Engine: vvp.EngineKernel, Workers: 1,
		Why: "all 18 cells as runs on a coordinator with two workers over loopback HTTP: lease, observe and report RPC cost shows only here",
	},
	{
		Name: "service_jobs", Kind: kindService, Cells: table4(), Engine: vvp.EngineKernel, Workers: 1,
		Why: "each cell submitted to the job API once cold and three times warm by two clients: queue, store, cache and per-job platform build",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// opsPerRound is the number of operations one pass over the workload makes.
func (w *workload) opsPerRound() int {
	if w.Kind == kindService {
		return 4 * len(w.Cells) // 1 cold + 3 warm per cell
	}
	return len(w.Cells)
}

// env is what set-up produces: the workload's platforms, built, frozen,
// compiled and linted, plus the daemons of the fleet and service workloads.
type env struct {
	w      *workload
	golden map[string]goldenEntry
	tmp    string // scratch directory inside the checkout
	plats  map[cell]*core.Platform
	nextOp int

	// fleet
	coord      *cluster.Coordinator
	coordReg   *obs.Registry
	workerRegs []*obs.Registry
	ts         *httptest.Server
	stopFleet  func()

	// service: set-up starts one daemon so its start-up cost is in
	// setup_s; every round starts its own on a fresh DataDir.
	svc    *serviceInstance
	client *http.Client

	// traces of traced rounds, parsed after the last round.
	pending []pendingTrace
	// opSpans maps a run or client operation to its op span, so server
	// spans find their parent once the last round is over.
	opSpans map[string]int
}

type pendingTrace struct {
	buf     *bytes.Buffer
	analyze int // span id
	op      int
}

func buildPlatform(c cell) (*core.Platform, error) {
	p, err := report.BuildPlatform(c.Design, c.Bench)
	if err != nil {
		return nil, err
	}
	if err := p.Design.Freeze(); err != nil {
		return nil, err
	}
	p.Design.Program()
	p.Lint()
	return p, nil
}

// setUp builds everything a round needs. rec is nil on an untraced run.
func setUp(w *workload, golden map[string]goldenEntry, tmp string, rec *recorder) (*env, error) {
	e := &env{w: w, golden: golden, tmp: tmp, plats: make(map[cell]*core.Platform), opSpans: make(map[string]int)}
	for _, c := range w.Cells {
		p, err := buildPlatform(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c, err)
		}
		e.plats[c] = p
	}
	switch w.Kind {
	case kindFleet:
		e.startFleet(rec)
	case kindService:
		// The timeout bounds a whole exchange, event stream included: a job
		// that never finishes fails its operation instead of hanging the run.
		e.client = &http.Client{Timeout: opTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: parallelism}}
		svc, err := e.startService(nil)
		if err != nil {
			return nil, err
		}
		e.svc = svc
	}
	return e, nil
}

func (e *env) close() {
	if e.stopFleet != nil {
		e.stopFleet()
	}
	if e.svc != nil {
		e.svc.stop()
	}
	if e.client != nil {
		e.client.CloseIdleConnections()
	}
}

func (e *env) startFleet(rec *recorder) {
	build := func(design, bench string) (*core.Platform, error) {
		p, ok := e.plats[cell{report.Design(design), bench}]
		if !ok {
			return nil, fmt.Errorf("no prebuilt platform for %s/%s", bench, design)
		}
		return p, nil
	}
	e.coordReg = obs.NewRegistry()
	e.coord = cluster.NewCoordinator(cluster.Config{Metrics: e.coordReg, BuildPlatform: build})
	e.ts = httptest.NewServer(timed(rec, e.coord.Handler()))
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < parallelism; i++ {
		reg := obs.NewRegistry()
		e.workerRegs = append(e.workerRegs, reg)
		wk := &cluster.Worker{
			Coordinator:   e.ts.URL,
			Name:          fmt.Sprintf("bench%d", i),
			Slots:         1,
			Metrics:       reg,
			PollEvery:     5 * time.Millisecond,
			BuildPlatform: build,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx) // returns ctx.Err() on the cancel below
		}()
	}
	e.stopFleet = func() {
		cancel()
		e.coord.Close() // wakes the workers parked in a lease long-poll
		wg.Wait()
		e.ts.Close()
	}
}

// opResult is one operation: one co-analysis of one cell to its tie-off
// list, however it was submitted.
type opResult struct {
	Cell  cell
	Warm  bool    // service: answered from the result cache
	LatMs float64 // submit to tie-off list, the golden check excluded
	Out   outcome
	Fail  string // why the operation failed; "" when it passed
}

type roundResult struct {
	Wall time.Duration
	Ops  []opResult
}

// layerAcc accumulates what the traced rounds read off results,
// registries and the timing decorators.
type layerAcc struct {
	rounds      int
	wallNs      int64
	analyzeNs   int64
	busyNs      int64
	tieoffsNs   int64
	segments    int
	skipped     int
	pruned      int
	created     int
	cycles      uint64
	cyclesBy    map[report.Design]uint64
	statesFinal int
	observeUs   []float64
	subsumed    int
	laneOccSum  float64
	laneOccN    uint64
	series      int

	// service
	queueWaitMs []float64
	runMs       []float64
	cacheHits   uint64
	cacheMisses uint64
	storeBytes  int64
	jobs        int
	cpuSeconds  float64
}

func (e *env) round(order []cell, rec *recorder, acc *layerAcc) roundResult {
	switch e.w.Kind {
	case kindFleet:
		return e.fleetRound(order, rec, acc)
	case kindService:
		return e.serviceRound(order, rec, acc)
	}
	return e.engineRound(order, e.w.Engine, e.w.Workers, rec, acc)
}

// engineRound analyzes the cells one after another in-process. Every round
// gets a fresh registry so label sets stay bounded and layer counters can
// be read per round.
func (e *env) engineRound(order []cell, engine vvp.Engine, workers int, rec *recorder, acc *layerAcc) roundResult {
	reg := obs.NewRegistry()
	rr := roundResult{Ops: make([]opResult, 0, len(order))}
	roundSpan := rec.begin("round", -1, -1)
	t0 := time.Now()
	for _, c := range order {
		op := e.nextOp
		e.nextOp++
		opSpan := rec.begin("op", roundSpan, op)
		cfg := core.Config{Engine: engine, Workers: workers, Metrics: reg}
		var tp *timedPolicy
		var tr *obs.Tracer
		var tbuf *bytes.Buffer
		anSpan := rec.begin("core.Analyze", opSpan, op)
		if rec != nil {
			tp = &timedPolicy{Manager: csm.NewMergeAll(), rec: rec, parent: anSpan, op: op}
			cfg.Policy = tp
			tbuf = new(bytes.Buffer)
			tr = obs.NewTracer(tbuf)
			cfg.Tracer = tr
		}
		ts := time.Now()
		res, err := core.Analyze(e.plats[c], cfg)
		an := time.Since(ts)
		rec.end(anSpan)
		r := opResult{Cell: c}
		if err != nil {
			r.Fail = err.Error()
			r.LatMs = float64(an) / 1e6
			rec.end(opSpan)
			rr.Ops = append(rr.Ops, r)
			continue
		}
		tt := time.Now()
		ties := res.TieOffs()
		tie := time.Since(tt)
		rec.add("Result.TieOffs", opSpan, op, tie)
		r.LatMs = float64(an+tie) / 1e6

		ck := rec.begin("golden.check", opSpan, op)
		r.Out = outcomeOf(res, ties)
		r.Fail = check(e.golden, c, r.Out)
		rec.end(ck)
		if rec != nil {
			// Flush, not parse: decoding the program's segment records
			// waits until the last round is over.
			if err := tr.Flush(); err != nil {
				r.Fail = "trace flush: " + err.Error()
			}
			e.pending = append(e.pending, pendingTrace{tbuf, anSpan, op})
		}
		rec.end(opSpan)
		rr.Ops = append(rr.Ops, r)

		if acc != nil {
			acc.analyzeNs += int64(an)
			acc.busyNs += int64(res.BusyTime)
			acc.tieoffsNs += int64(tie)
			acc.segments += len(res.Paths)
			acc.skipped += res.PathsSkipped
			acc.pruned += res.PathsPruned
			acc.created += res.PathsCreated
			acc.cycles += res.SimulatedCycles
			acc.cyclesBy[c.Design] += res.SimulatedCycles
			acc.statesFinal += res.CSMStates
			if tp != nil {
				acc.observeUs = append(acc.observeUs, tp.us...)
				acc.subsumed += tp.subsumed
			}
		}
	}
	rr.Wall = time.Since(t0)
	rec.end(roundSpan)
	if acc != nil {
		acc.rounds++
		acc.wallNs += int64(rr.Wall)
		occ := reg.Histogram("symsim_vvp_lane_occupancy", "", nil)
		acc.laneOccSum += occ.Sum()
		acc.laneOccN += occ.Count()
		acc.series = seriesCount(reg)
	}
	return rr
}

// foldSegments parses the trace records the program wrote during traced
// rounds and folds each path segment in as a child of its Analyze span.
func (e *env) foldSegments(rec *recorder) error {
	for _, pt := range e.pending {
		log, err := obs.ReadTrace(pt.buf)
		if err != nil {
			return fmt.Errorf("reading the program's trace: %w", err)
		}
		for _, s := range log.Spans {
			rec.add("core.segment", pt.analyze, pt.op, time.Duration(s.WallUS)*time.Microsecond)
		}
	}
	e.pending = nil
	return nil
}

// seriesCount counts the series one round left in its registry.
func seriesCount(reg *obs.Registry) int {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	n := 0
	for _, line := range bytes.Split(buf.Bytes(), []byte{'\n'}) {
		if len(line) > 0 && line[0] != '#' {
			n++
		}
	}
	return n
}

// fleetRound registers every cell as a run on the coordinator, then awaits
// them all; the two workers pull units over HTTP.
func (e *env) fleetRound(order []cell, rec *recorder, acc *layerAcc) roundResult {
	rr := roundResult{Ops: make([]opResult, len(order))}
	roundSpan := rec.begin("round", -1, -1)
	rec.setRound(roundSpan)
	if rec != nil {
		rec.on.Store(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range order {
		op := e.nextOp
		e.nextOp++
		opSpan := rec.begin("op", roundSpan, op)
		start := time.Now()
		id, err := e.coord.NewRun(cluster.RunSpec{Design: string(c.Design), Bench: c.Bench, Workers: e.w.Workers})
		if err != nil {
			rr.Ops[i] = opResult{Cell: c, Fail: err.Error()}
			rec.end(opSpan)
			continue
		}
		e.opSpans["run:"+id] = opSpan
		wg.Add(1)
		go func(i int, c cell) {
			defer wg.Done()
			r := opResult{Cell: c}
			res, err := e.coord.Wait(ctx, id)
			if err != nil {
				r.Fail = err.Error()
			} else {
				ties := res.TieOffs()
				r.LatMs = float64(time.Since(start)) / 1e6
				r.Out = outcomeOf(res, ties)
				r.Fail = check(e.golden, c, r.Out)
			}
			rec.end(opSpan)
			rr.Ops[i] = r
		}(i, c)
	}
	wg.Wait()
	rr.Wall = time.Since(t0)
	rec.end(roundSpan)
	if rec != nil {
		rec.on.Store(false)
	}
	if acc != nil {
		acc.rounds++
		acc.wallNs += int64(rr.Wall)
		for _, r := range rr.Ops {
			acc.created += r.Out.Paths
			acc.segments += r.Out.Paths // a complete run simulates every path it creates
			acc.cycles += r.Out.Cycles
			acc.cyclesBy[r.Cell.Design] += r.Out.Cycles
		}
		acc.series = seriesCount(e.coordReg)
	}
	return rr
}

// serviceInstance is one symsimd job service behind its HTTP API.
type serviceInstance struct {
	svc *service.Service
	ts  *httptest.Server
	dir string
	reg *obs.Registry
}

func (e *env) startService(rec *recorder) (*serviceInstance, error) {
	dir, err := os.MkdirTemp(e.tmp, "svc-")
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	svc, err := service.New(service.Config{DataDir: dir, Workers: parallelism, Metrics: reg})
	if err != nil {
		return nil, err
	}
	return &serviceInstance{svc: svc, ts: httptest.NewServer(timed(rec, service.Handler(svc))), dir: dir, reg: reg}, nil
}

func (s *serviceInstance) stop() {
	s.ts.Close()
	s.svc.Close()
	_ = os.RemoveAll(s.dir) // scratch under out/tmp, removed again when the run ends
}

// jobView and resultSummary are the fields of the job API's JSON the
// client reads.
type jobView struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Cached bool   `json:"cached"`
}

type resultSummary struct {
	Complete         bool   `json:"complete"`
	ExercisableCount int    `json:"exercisableGates"`
	PathsCreated     int    `json:"pathsCreated"`
	SimulatedCycles  uint64 `json:"simulatedCycles"`
	TieOffs          []struct {
		Gate  string `json:"gate"`
		Value string `json:"value"`
	} `json:"tieOffs"`
}

// serviceRound starts a daemon on a fresh DataDir, then two closed-loop
// clients submit each cell once cold and, once it completed, three more
// times, so three in four jobs take the cache-hit path.
func (e *env) serviceRound(order []cell, rec *recorder, acc *layerAcc) roundResult {
	rr := roundResult{}
	inst, err := e.startService(rec)
	if err != nil {
		rr.Ops = []opResult{{Fail: "starting the service: " + err.Error()}}
		return rr
	}
	defer inst.stop()

	roundSpan := rec.begin("round", -1, -1)
	rec.setRound(roundSpan)
	if rec != nil {
		rec.on.Store(true)
	}
	work := make(chan cell)
	var mu sync.Mutex // guards rr.Ops, e.opSpans and e.nextOp
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < parallelism; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				for n := 0; n < 4; n++ {
					mu.Lock()
					op := e.nextOp
					e.nextOp++
					mu.Unlock()
					opSpan := rec.begin("op", roundSpan, op)
					r := e.job(inst.ts.URL, c, op)
					rec.end(opSpan)
					r.Warm = n > 0
					mu.Lock()
					e.opSpans["op:"+strconv.Itoa(op)] = opSpan
					rr.Ops = append(rr.Ops, r)
					mu.Unlock()
				}
			}
		}()
	}
	for _, c := range order {
		work <- c
	}
	close(work)
	wg.Wait()
	rr.Wall = time.Since(t0)
	rec.end(roundSpan)
	if rec != nil {
		rec.on.Store(false)
	}

	if acc != nil {
		acc.rounds++
		acc.wallNs += int64(rr.Wall)
		for _, r := range rr.Ops {
			if !r.Warm {
				acc.created += r.Out.Paths
				acc.segments += r.Out.Paths
				acc.cycles += r.Out.Cycles
				acc.cyclesBy[r.Cell.Design] += r.Out.Cycles
			}
		}
		for _, j := range inst.svc.Jobs() {
			acc.jobs++
			acc.cpuSeconds += j.CPUSeconds
			if !j.Cached && j.Started > 0 && j.Finished > 0 {
				acc.queueWaitMs = append(acc.queueWaitMs, float64(j.Started-j.Submitted)/1e6)
				acc.runMs = append(acc.runMs, float64(j.Finished-j.Started)/1e6)
			}
		}
		m := inst.svc.MetricsSnapshot()
		acc.cacheHits += m.CacheHits
		acc.cacheMisses += m.CacheMisses
		acc.storeBytes += dirSize(inst.dir)
		acc.series = seriesCount(inst.reg)
	}
	return rr
}

// job is one service operation: submit, wait on the event stream until
// the job is terminal, fetch the result.
func (e *env) job(base string, c cell, op int) opResult {
	r := opResult{Cell: c}
	start := time.Now()
	spec, _ := json.Marshal(map[string]string{"design": string(c.Design), "bench": c.Bench}) // a map of strings always encodes
	var view jobView
	if err := e.call(http.MethodPost, base+"/jobs", op, spec, http.StatusCreated, &view); err != nil {
		r.Fail = err.Error()
		return r
	}
	if view.State != "done" {
		// The stream closes once the job reaches a terminal state.
		if err := e.call(http.MethodGet, base+"/jobs/"+view.ID+"/events", op, nil, http.StatusOK, nil); err != nil {
			r.Fail = err.Error()
			return r
		}
	}
	var sum resultSummary
	if err := e.call(http.MethodGet, base+"/jobs/"+view.ID+"/result", op, nil, http.StatusOK, &sum); err != nil {
		r.Fail = err.Error()
		return r
	}
	r.LatMs = float64(time.Since(start)) / 1e6
	r.Out = outcome{
		Complete: sum.Complete,
		Gates:    sum.ExercisableCount,
		Paths:    sum.PathsCreated,
		Cycles:   sum.SimulatedCycles,
		Digest: digestTieOffs(len(sum.TieOffs), func(i int) (string, string) {
			return sum.TieOffs[i].Gate, sum.TieOffs[i].Value
		}),
	}
	r.Fail = check(e.golden, c, r.Out)
	return r
}

// call makes one request; into, when non-nil, receives the JSON body.
func (e *env) call(method, url string, op int, body []byte, want int, into any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set(opHeader, strconv.Itoa(op))
	resp, err := e.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if into == nil {
		return nil
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // a file the daemon removed mid-walk just does not count
		if err != nil || d.IsDir() {
			return nil
		}
		if info, err := d.Info(); err == nil {
			n += info.Size()
		}
		return nil
	})
	return n
}
