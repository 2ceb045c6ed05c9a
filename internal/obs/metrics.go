// Package obs is symsim's zero-dependency observability layer: a
// lock-cheap metrics registry (atomic counters and histograms, and gauges
// read from a function at scrape time, with Prometheus text exposition)
// plus a structured JSONL trace of one exploration (per-path spans and CSM
// decisions) with the reader and renderer behind `symsim explain`.
//
// The package deliberately depends on nothing but the standard library and
// nothing inside symsim, so every layer — vvp, csm, core, service, the
// CLIs — can publish into it without import cycles. Instrument publishers
// follow one rule: nothing on a per-cycle hot path. The simulation engines
// accumulate plain integers (vvp's cycle/sweep/eval counters) and the
// analysis driver publishes the deltas once per path segment, so a run
// with observability "on" (it always is; only tracing is optional) stays
// within noise of one without.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram: bucket upper bounds are chosen at
// creation and never change, so Observe is a linear scan over a handful of
// bounds plus three atomic adds — no locks, no allocation.
type Histogram struct {
	bounds []float64 // ascending upper bounds (le); +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits accumulated via CAS
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start with the given factor — the usual shape for cycle counts and
// latencies.
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// CounterVec is a family of counters keyed by one label value (e.g. how a
// path ended). Children are created on first use. Nothing bounds the
// family, so a label's values must come from a fixed set: a value a run
// computes — a PC, a path ID — belongs in its trace, not in a label.
type CounterVec struct {
	label string
	mu    sync.RWMutex
	m     map[string]*Counter
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter {
	if v == nil {
		return nil
	}
	v.mu.RLock()
	c := v.m[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[value]; c != nil {
		return c
	}
	c = &Counter{}
	v.m[value] = c
	return c
}

// metricKind tags a registered family for the TYPE exposition line.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGaugeFunc
	kindHistogram
	kindCounterVec
)

type family struct {
	name string
	help string
	kind metricKind

	counter *Counter
	fn      func() float64
	histo   *Histogram
	vec     *CounterVec
}

// Registry is a set of named metric families. Get-or-create accessors are
// cheap enough for setup paths; hot paths cache the returned pointers.
// All methods are safe for concurrent use.
type Registry struct {
	mu  sync.Mutex
	fam map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fam: make(map[string]*family)} }

// Default is the process-wide registry: core, csm, vvp and the service
// publish into it unless explicitly given another (core.Config.Metrics).
var Default = NewRegistry()

func (r *Registry) get(name, help string, kind metricKind, mk func() *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fam[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
		}
		return f
	}
	f := mk()
	f.name, f.help, f.kind = name, help, kind
	r.fam[name] = f
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.get(name, help, kindCounter, func() *family { return &family{counter: &Counter{}} }).counter
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (e.g. a queue depth). Re-registering the same name replaces fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.get(name, help, kindGaugeFunc, func() *family { return &family{} })
	r.mu.Lock()
	f.fn = fn
	r.mu.Unlock()
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls ignore buckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.get(name, help, kindHistogram, func() *family {
		b := append([]float64(nil), buckets...)
		sort.Float64s(b)
		return &family{histo: &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}}
	}).histo
}

// CounterVec returns the named one-label counter family, creating it on
// first use.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return r.get(name, help, kindCounterVec, func() *family {
		return &family{vec: &CounterVec{label: label, m: make(map[string]*Counter)}}
	}).vec
}

// escapeLabel escapes a label value for the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// fmtFloat renders a sample value the way Prometheus expects: integers
// without an exponent, +Inf spelled out.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus writes every family in the Prometheus text exposition
// format (version 0.0.4), sorted by metric name so scrapes are
// reproducible.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fam))
	for _, f := range r.fam {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		typ := "counter"
		switch f.kind {
		case kindGaugeFunc:
			typ = "gauge"
		case kindHistogram:
			typ = "histogram"
		}
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, typ); err != nil {
			return err
		}
		var err error
		switch f.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
		case kindGaugeFunc:
			r.mu.Lock()
			fn := f.fn
			r.mu.Unlock()
			v := 0.0
			if fn != nil {
				v = fn()
			}
			_, err = fmt.Fprintf(w, "%s %s\n", f.name, fmtFloat(v))
		case kindHistogram:
			err = writeHistogram(w, f.name, f.histo)
		case kindCounterVec:
			err = writeVec(w, f.name, f.vec)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func writeHistogram(w io.Writer, name string, h *Histogram) error {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
	return err
}

func writeVec(w io.Writer, name string, v *CounterVec) error {
	v.mu.RLock()
	keys := make([]string, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		v.mu.RLock()
		c := v.m[k]
		v.mu.RUnlock()
		if _, err := fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", name, v.label, escapeLabel(k), c.Value()); err != nil {
			return err
		}
	}
	return nil
}
