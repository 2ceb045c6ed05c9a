package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"symsim/internal/csm"
	"symsim/internal/vvp"
)

// span is one timed interval at a layer boundary. The benchmark records
// spans from its own files, around the calls into each layer; spans of one
// operation share Op. Start is -1 on spans folded in from the program's own
// trace records (obs.Span carries a duration but no timestamp).
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`

	// key names the job or run that caused a server-side span; resolve
	// turns it into Parent and Op once the client knows which operation
	// that was.
	key string
}

// recorder keeps spans in memory until the last round is over. A nil
// recorder records nothing: the untraced run pays one pointer test.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	round int // current round span, parent of server spans without a key
	// on gates server spans: a daemon's handler stays wrapped between
	// rounds, and only requests of a traced round are recorded.
	on atomic.Bool
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), round: -1}
}

func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now, Dur: -1})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].Dur = now - r.spans[id].Start
	r.mu.Unlock()
}

// add records a duration-only child span.
func (r *recorder) add(name string, parent, op int, dur time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: len(r.spans), Parent: parent, Op: op, Start: -1, Dur: int64(dur)})
	r.mu.Unlock()
}

func (r *recorder) setRound(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.round = id
	r.mu.Unlock()
}

// server records a span measured on the serving side of an HTTP call.
func (r *recorder) server(name, key string, start time.Time, dur time.Duration) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		Name: name, ID: len(r.spans), Parent: r.round, Op: -1,
		Start: int64(start.Sub(r.t0)), Dur: int64(dur), key: key,
	})
	r.mu.Unlock()
}

// resolve attaches keyed server spans to the operation span that caused
// them; ops maps a key to that span's ID.
func (r *recorder) resolve(ops map[string]int) {
	if r == nil {
		return
	}
	for i := range r.spans {
		s := &r.spans[i]
		if id, ok := ops[s.key]; ok && s.key != "" {
			s.Parent, s.Op = id, r.spans[id].Op
		}
	}
}

// durations returns, in milliseconds, every span with the given name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.Dur >= 0 {
			out = append(out, float64(s.Dur)/1e6)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. Children of one span are taken as sequential — true of
// every Workers=1 workload — and their cover is capped at the parent's
// duration, so a parent whose children overlap (parallel path workers,
// concurrent clients) reads 0 self time rather than a negative one.
func selfTimes(spans []span) map[string]int64 {
	cover := make(map[int]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.Dur > 0 {
			cover[s.Parent] += s.Dur
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		if s.Dur < 0 {
			continue
		}
		c := cover[s.ID]
		if c > s.Dur {
			c = s.Dur
		}
		self[s.Name] += s.Dur - c
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name  string
	SelfS float64 // per traced round
	Share float64 // of the traced rounds' wall
}

// layerTable turns self times into rows sorted by share; sumFrac is the
// rows' total over the rounds' wall, 1 when the accounting adds up.
func layerTable(spans []span, rounds int) (rows []layerRow, sumFrac float64) {
	var wall int64
	for _, s := range spans {
		if s.Name == "round" && s.Dur > 0 {
			wall += s.Dur
		}
	}
	if wall == 0 || rounds == 0 {
		return nil, 0
	}
	var total int64
	for name, ns := range selfTimes(spans) {
		rows = append(rows, layerRow{name, float64(ns) / 1e9 / float64(rounds), float64(ns) / float64(wall)})
		total += ns
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Share != rows[j].Share {
			return rows[i].Share > rows[j].Share
		}
		return rows[i].Name < rows[j].Name
	})
	return rows, float64(total) / float64(wall)
}

func (r *recorder) writeJSONL(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// timedPolicy is the csm.Manager handed to Analyze as Config.Policy on a
// traced round: it times every Observe from outside the csm package.
type timedPolicy struct {
	csm.Manager
	rec    *recorder
	parent int
	op     int

	mu       sync.Mutex
	us       []float64
	subsumed int
}

func (t *timedPolicy) Observe(st vvp.State) csm.Decision {
	t0 := time.Now()
	d := t.Manager.Observe(st)
	dur := time.Since(t0)
	t.rec.add("csm.Observe", t.parent, t.op, dur)
	t.mu.Lock()
	t.us = append(t.us, float64(dur)/1e3)
	if d.Subsumed {
		t.subsumed++
	}
	t.mu.Unlock()
	return d
}

// opHeader carries the benchmark client's operation id to the timing
// handler; the program under test never reads it.
const opHeader = "X-Bench-Op"

// timed wraps a daemon's handler so every request leaves a server span.
func timed(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		name, key := endpointOf(r.Method, r.URL.Path)
		if op := r.Header.Get(opHeader); op != "" {
			key = "op:" + op
		}
		rec.server(name, key, t0, time.Since(t0))
	})
}

// endpointOf names the span for a request and, for the cluster API, the
// run it belongs to.
func endpointOf(method, path string) (name, key string) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "jobs" && method == http.MethodPost:
		return "http.submit", ""
	case len(parts) == 2 && parts[0] == "jobs":
		return "http.status", ""
	case len(parts) == 3 && parts[0] == "jobs":
		return "http." + parts[2], ""
	case len(parts) == 2 && parts[0] == "cluster":
		return "http." + parts[1], ""
	case len(parts) == 4 && parts[0] == "cluster" && parts[1] == "runs":
		return "http." + parts[3], "run:" + parts[2]
	}
	return "http.other", ""
}
