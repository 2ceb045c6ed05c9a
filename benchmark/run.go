package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"symsim/internal/report"
	"symsim/internal/vvp"
)

const (
	// An untraced run sets up twice before the first round and setupReps-1
	// more times between rounds, evenly over the run, so that setup_s
	// samples the same stretch of host time the rounds do.
	setupReps = 8
	// minRounds are measured however short -seconds is.
	minRounds = 3
	// refRounds is how many kernel reference rounds a traced run makes.
	refRounds = 3
)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what -out appends, one JSON object per line: the result line
// plus what produced it. -compare reads files of these.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Rounds   int     `json:"rounds"`
	Nproc    int     `json:"nproc"`
	// The samples behind the reported timings, in order: every measured
	// round, every set-up, every operation by cell (":warm" for a cache
	// hit). The choice of statistic (fastest, see below) was made on these
	// and can be made again on them.
	RoundWallS []float64            `json:"round_wall_samples_s"`
	SetupS     []float64            `json:"setup_samples_s"`
	OpMs       map[string][]float64 `json:"op_ms_samples"`
	resultLine
}

type runOpts struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Dir     string    // the benchmark's directory; out/ lives under it
	Log     io.Writer // human-readable report
}

// shuffled returns the workload's cells in the order of one round.
func shuffled(cells []cell, rng *rand.Rand) []cell {
	order := append([]cell(nil), cells...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// runWorkload is one invocation: set-up, a warm-up round, rounds for
// opts.Seconds, every operation checked against golden. The untraced run
// yields the end-to-end metrics; the traced run alternates traced and
// untraced rounds and yields the per-layer metrics.
func runWorkload(w *workload, opts runOpts) (*record, error) {
	runtime.GOMAXPROCS(parallelism)
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(opts.Dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var rec *recorder
	if opts.Trace {
		rec = newRecorder()
	}

	var setupS []float64
	timedSetUp := func() (*env, error) {
		t0 := time.Now()
		e, err := setUp(w, golden, tmp, rec)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		return e, nil
	}
	// The first set-up of a process pays for a cold heap; the rounds run
	// on the second.
	cold, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	cold.close()
	e, err := timedSetUp()
	if err != nil {
		return nil, err
	}
	defer func() {
		if e != nil { // nil when a set-up between rounds failed
			e.close()
		}
	}()

	layer := make(map[string]float64)
	var refWall []float64
	var refCycles uint64
	if opts.Trace {
		if err := probes(layer, tmp); err != nil {
			return nil, err
		}
		// Reference rounds: the same cells on the kernel engine with one
		// worker, in the same process, for cycles_vs_kernel and
		// fleet_speedup.
		for i := 0; i < refRounds; i++ {
			rr := e.engineRound(w.Cells, vvp.EngineKernel, 1, nil, nil)
			refWall = append(refWall, rr.Wall.Seconds())
			refCycles = 0
			for _, op := range rr.Ops {
				if op.Fail != "" {
					return nil, fmt.Errorf("reference round: %s: %s", op.Cell, op.Fail)
				}
				refCycles += op.Out.Cycles
			}
		}
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	e.round(shuffled(w.Cells, rng), nil, nil) // warm-up, discarded

	var (
		plain, traced []roundResult // untraced and traced measured rounds
		acc           = &layerAcc{cyclesBy: make(map[report.Design]uint64)}
		plainMallocs  uint64
		plainAlloc    uint64 // bytes
		ms0, ms1      runtime.MemStats
	)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start).Seconds() < opts.Seconds; n++ {
		if !opts.Trace && time.Since(start).Seconds() >= float64(len(setupS)-1)*opts.Seconds/setupReps {
			// The rounds go on with the new set-up, and the old one is
			// collected first: two at once would double what peak_rss_mb
			// sees of the platforms.
			e.close()
			e = nil
			runtime.GC()
			if e, err = timedSetUp(); err != nil {
				return nil, err
			}
		}
		order := shuffled(w.Cells, rng)
		if opts.Trace && n%2 == 0 {
			traced = append(traced, e.round(order, rec, acc))
			continue
		}
		// Untraced rounds are all an untraced run has; in a traced run
		// they are what the traced rounds are compared with, and where
		// allocations per cycle are counted.
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		plain = append(plain, e.round(order, nil, nil))
		runtime.ReadMemStats(&b)
		plainMallocs += b.Mallocs - a.Mallocs
		plainAlloc += b.TotalAlloc - a.TotalAlloc
	}
	runtime.ReadMemStats(&ms1)

	all := append(append([]roundResult(nil), plain...), traced...)
	r := &record{
		Workload: w.Name, Seed: opts.Seed, Trace: opts.Trace, Seconds: opts.Seconds,
		Rounds: len(all), Nproc: runtime.NumCPU(),
	}
	r.Metrics = make(map[string]metricValue)
	var failures []string
	r.OpMs = make(map[string][]float64)
	r.SetupS = setupS
	for _, rr := range all {
		r.RoundWallS = append(r.RoundWallS, rr.Wall.Seconds())
		for _, op := range rr.Ops {
			key := op.Cell.String()
			if op.Warm {
				key += ":warm"
			}
			r.OpMs[key] = append(r.OpMs[key], op.LatMs)
			r.Attempted++
			if op.Fail != "" {
				r.Failed++
				failures = append(failures, fmt.Sprintf("%s: %s", op.Cell, op.Fail))
			}
		}
	}
	r.Correct = r.Failed == 0 && r.Attempted == len(all)*w.opsPerRound()

	if !opts.Trace {
		e2e := endToEndMetrics(w, plain, setupS, plainAlloc)
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
		printEndToEnd(opts.Log, w, r, plain, len(setupS))
	} else {
		rec.resolve(e.opSpans)
		if err := e.foldSegments(rec); err != nil {
			return nil, err
		}
		layerMetrics(layer, w, e, rec, acc, plain, traced, plainMallocs, refWall, refCycles)
		layer["bench.gc_pause_ms"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
		layer["bench.nproc"] = float64(runtime.NumCPU())
		for _, d := range perLayer {
			r.Metrics[d.Name] = metricValue{layer[d.Name], d.Unit}
		}
		tracePath := filepath.Join(outDir, "trace-"+w.Name+".jsonl")
		if err := rec.writeJSONL(tracePath); err != nil {
			return nil, err
		}
		printPerLayer(opts.Log, w, r, rec, len(traced), tracePath)
	}
	for i, f := range failures {
		if i == 10 {
			fmt.Fprintf(opts.Log, "  ... and %d more\n", len(failures)-10)
			break
		}
		fmt.Fprintf(opts.Log, "  FAILED %s\n", f)
	}
	return r, nil
}

// opType is what makes operations comparable: the same cell, answered the
// same way. On the fleet it is the operation's place among the round's
// completions instead (see endToEndMetrics).
type opType struct {
	Cell cell
	Warm bool
	Rank int
}

// fastest is the smallest of xs, 0 when empty: what a run reports for
// every timing. The reference box is a few cores of a shared host; what its
// neighbours do adds to a timing, never takes away, for seconds to minutes
// at a time, and the median of a run's samples moves with how much of the
// run they disturbed. The fastest sample of many is the time the program
// takes while the host leaves it alone, and repeats from run to run more
// closely than the median or the mean does (README, "Sizing").
func fastest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// bandHalf is half the width, in rank, of the band a latency percentile
// averages over.
const bandHalf = 0.05

// typedPercentile is the mean latency of the operations ranked within
// bandHalf of the q-quantile, every operation taken at the fastest latency
// of its type. The mix is a fixed list of a few dozen types whose latencies
// lie far apart, so a nearest-rank percentile reports one sample of
// whichever type sits at the rank, and when two types trade places it
// jumps; the band over type latencies moves smoothly.
func typedPercentile(byType map[opType][]float64, q float64) float64 {
	var lat []float64
	for _, xs := range byType {
		t := fastest(xs)
		for range xs {
			lat = append(lat, t)
		}
	}
	s := sortedCopy(lat)
	n := float64(len(s))
	lo, hi := int(math.Floor((q-bandHalf)*n)), int(math.Ceil((q+bandHalf)*n))
	if lo < 0 {
		lo = 0
	}
	if hi > len(s) {
		hi = len(s)
	}
	if lo >= hi {
		return 0
	}
	return sum(s[lo:hi]) / float64(hi-lo)
}

// endToEndMetrics reduces the untraced rounds to the end-to-end metrics.
func endToEndMetrics(w *workload, rounds []roundResult, setupS []float64, allocBytes uint64) map[string]float64 {
	var wall, paths, cycles, gates []float64
	byType := make(map[opType][]float64)
	for _, rr := range rounds {
		wall = append(wall, rr.Wall.Seconds())
		if w.Kind == kindFleet {
			// Every run of a round is registered at once, so a run's
			// latency is its place in the queue, not a property of its
			// cell: the type is the place among the round's completions.
			var lat []float64
			for _, op := range rr.Ops {
				lat = append(lat, op.LatMs)
			}
			for rank, ms := range sortedCopy(lat) {
				byType[opType{Rank: rank}] = append(byType[opType{Rank: rank}], ms)
			}
		}
		var p, c, g float64
		for _, op := range rr.Ops {
			if w.Kind != kindFleet {
				t := opType{Cell: op.Cell, Warm: op.Warm}
				byType[t] = append(byType[t], op.LatMs)
			}
			if op.Warm {
				continue // a cache hit simulates nothing
			}
			p += float64(op.Out.Paths)
			c += float64(op.Out.Cycles)
			g += float64(op.Out.Gates)
		}
		paths, cycles, gates = append(paths, p), append(cycles, c), append(gates, g)
	}
	roundWall := fastest(wall)
	if w.Kind == kindEngine {
		// One operation after another: a round is the sum of its
		// operations (and 0.5 % of golden check), and a single operation
		// finds the host undisturbed far more often than a whole round.
		roundWall = 0
		for _, xs := range byType {
			roundWall += fastest(xs) / 1e3
		}
	}
	var ru syscall.Rusage
	rss := 0.0
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		rss = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return map[string]float64{
		"setup_s":            fastest(setupS),
		"round_wall_s":       roundWall,
		"op_ms_p50":          typedPercentile(byType, 0.5),
		"alloc_mb_per_round": ratio(float64(allocBytes)/(1<<20), float64(len(rounds))),
		"peak_rss_mb":        rss,
		"paths_created":      median(paths),
		"simulated_cycles":   median(cycles),
		"exercisable_gates":  median(gates),
	}
}

// layerMetrics derives the workload-dependent per-layer metrics from the
// traced rounds; the probes already filled in the rest.
func layerMetrics(m map[string]float64, w *workload, e *env, rec *recorder, acc *layerAcc,
	plain, traced []roundResult, plainMallocs uint64, refWall []float64, refCycles uint64) {
	n := float64(acc.rounds)
	perRound := func(x float64) float64 { return ratio(x, n) }
	analyze, busy := float64(acc.analyzeNs)/1e9, float64(acc.busyNs)/1e9
	observe := sum(acc.observeUs) / 1e6
	cycles := float64(acc.cycles)

	m["core.analyze_s"] = perRound(analyze)
	m["core.busy_s"] = perRound(busy)
	m["core.busy_frac"] = ratio(busy, analyze)
	if w.Kind == kindEngine && w.Workers == 1 {
		// Scheduler, absorb, classify and fork, finish, the pre-check:
		// what Analyze does besides simulating and observing.
		m["core.self_s"] = perRound(analyze - busy - observe)
	}
	m["core.tieoffs_ms"] = perRound(float64(acc.tieoffsNs) / 1e6)
	m["core.segments"] = perRound(float64(acc.segments))
	m["core.cycles_per_segment"] = ratio(cycles, float64(acc.segments))
	m["core.paths_skipped"] = perRound(float64(acc.skipped))
	m["core.paths_pruned"] = perRound(float64(acc.pruned))
	m["core.subsumed_frac"] = ratio(float64(acc.skipped), float64(acc.created))
	m["core.host_ns_per_cycle"] = ratio(float64(acc.analyzeNs), cycles)
	modelled := 0.0
	for d, c := range acc.cyclesBy {
		modelled += float64(c) * m["vvp.steps_per_cycle"] * m["vvp.step_ns."+string(d)] / 1e9
	}
	m["core.modelled_step_s"] = perRound(modelled)
	if busy > 0 { // the fleet and the service do not hand back Result.BusyTime
		m["core.per_path_overhead_us"] = ratio((busy-modelled)*1e6, float64(acc.segments))
	}
	m["core.cycles_vs_kernel"] = ratio(perRound(cycles), float64(refCycles))
	m["core.parallel_efficiency"] = ratio(busy, analyze*float64(w.Workers))

	var plainCycles float64
	var plainWall, tracedWall []float64
	for _, rr := range plain {
		plainWall = append(plainWall, rr.Wall.Seconds())
		for _, op := range rr.Ops {
			if !op.Warm {
				plainCycles += float64(op.Out.Cycles)
			}
		}
	}
	for _, rr := range traced {
		tracedWall = append(tracedWall, rr.Wall.Seconds())
	}
	m["core.mallocs_per_cycle"] = ratio(float64(plainMallocs), plainCycles)
	if len(plainWall) > 0 {
		m["bench.trace_overhead_frac"] = ratio(median(tracedWall), median(plainWall)) - 1
	}

	m["csm.observe_s"] = perRound(observe)
	m["csm.observes"] = perRound(float64(len(acc.observeUs)))
	m["csm.observe_us_p50"] = percentile(acc.observeUs, 0.5)
	m["csm.observe_us_p90"] = percentile(acc.observeUs, 0.9)
	m["csm.subsumed"] = perRound(float64(acc.subsumed))
	m["csm.explore"] = perRound(float64(len(acc.observeUs) - acc.subsumed))
	m["csm.states_final"] = perRound(float64(acc.statesFinal))
	m["vvp.lane_occupancy_mean"] = ratio(acc.laneOccSum, float64(acc.laneOccN))
	m["obs.series_count"] = float64(acc.series)

	_, m["bench.self_sum_frac"] = layerTable(rec.spans, len(traced))

	if w.Kind == kindService {
		m["service.http_submit_ms_p50"] = median(rec.durations("http.submit"))
		m["service.http_result_ms_p50"] = median(rec.durations("http.result"))
		m["service.queue_wait_ms_p50"] = median(acc.queueWaitMs)
		m["service.run_ms_p50"] = median(acc.runMs)
		m["service.cache_hit_frac"] = ratio(float64(acc.cacheHits), float64(acc.cacheHits+acc.cacheMisses))
		m["service.store_bytes_per_job"] = ratio(float64(acc.storeBytes), float64(acc.jobs))
		m["service.cpu_seconds"] = perRound(acc.cpuSeconds)
	}
	if w.Kind == kindFleet {
		lease, obsv, rep := rec.durations("http.lease"), rec.durations("http.observe"), rec.durations("http.report")
		m["cluster.rpc_lease_ms_p50"] = median(lease)
		m["cluster.rpc_observe_ms_p50"] = median(obsv)
		m["cluster.rpc_report_ms_p50"] = median(rep)
		rpcs := 0
		for _, s := range rec.spans {
			if len(s.Name) > 5 && s.Name[:5] == "http." {
				rpcs++
			}
		}
		m["cluster.rpcs_per_path"] = ratio(float64(rpcs), float64(acc.created))
		// The daemons' registries count over the whole process, traced
		// or not: per round means every round any of them served.
		served := float64(len(plain) + len(traced) + 1) // + the warm-up
		counter := func(name string) float64 {
			t := 0.0
			for _, reg := range e.workerRegs {
				t += float64(reg.Counter(name, "").Value())
			}
			return t
		}
		observes, local := counter("symsim_cluster_worker_observe_rpcs_total"), counter("symsim_cluster_worker_local_subsumed_total")
		m["cluster.observe_rpcs"] = ratio(observes, served)
		m["cluster.local_subsumed_frac"] = ratio(local, local+observes)
		m["cluster.lease_empty_polls"] = ratio(counter("symsim_cluster_worker_lease_empty_total"), served)
		m["cluster.units_leased"] = ratio(float64(e.coordReg.Counter("symsim_cluster_units_leased_total", "").Value()), served)
		m["cluster.requeues"] = float64(e.coordReg.Counter("symsim_cluster_units_requeued_total", "").Value())
		m["cluster.fleet_speedup"] = ratio(median(refWall), median(plainWall))
	}
}

func printHeader(w io.Writer, wl *workload, r *record) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s, seed %d): %d rounds, %d operations, %d failed, nproc %d, GOMAXPROCS %d\n",
		wl.Name, mode, r.Seed, r.Rounds, r.Attempted, r.Failed, r.Nproc, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  why: %s\n", wl.Why)
}

func printEndToEnd(w io.Writer, wl *workload, r *record, rounds []roundResult, setups int) {
	printHeader(w, wl, r)
	fmt.Fprintf(w, "  %-22s %14s %-12s %8s %7s\n", "end-to-end metric", "value", "unit", "samples", "bound")
	for _, d := range endToEnd {
		samples := len(rounds)
		switch d.Name {
		case "setup_s":
			samples = setups
		case "op_ms_p50":
			samples = r.Attempted
		case "peak_rss_mb":
			samples = 1
		}
		fmt.Fprintf(w, "  %-22s %14.4f %-12s %8d %6.1f%%\n", d.Name, r.Metrics[d.Name].Value, d.Unit, samples, d.Bound*100)
	}
}

func printPerLayer(w io.Writer, wl *workload, r *record, rec *recorder, tracedRounds int, tracePath string) {
	printHeader(w, wl, r)
	fmt.Fprintf(w, "  %-34s %16s %-12s\n", "per-layer metric", "value", "unit")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %16.4f %-12s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	rows, sumFrac := layerTable(rec.spans, tracedRounds)
	fmt.Fprintf(w, "  self time per traced round (%d rounds, %d spans, written to %s)\n", tracedRounds, len(rec.spans), tracePath)
	for _, row := range rows {
		fmt.Fprintf(w, "    %-18s %10.4f s %6.1f%%\n", row.Name, row.SelfS, row.Share*100)
	}
	fmt.Fprintf(w, "    %-18s %10s   %6.1f%% of the rounds' wall\n", "sum", "", sumFrac*100)
}

// emit prints the result line and, with -out, appends the record.
func emit(r *record, out string) error {
	if out != "" {
		data, err := json.Marshal(r)
		if err != nil {
			return err
		}
		f, err := os.OpenFile(out, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.Write(append(data, '\n'))
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	line, err := json.Marshal(r.resultLine)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
