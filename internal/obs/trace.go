package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// This file is the structured exploration trace: one JSONL record per
// event, written while the analysis runs (core emits spans and governance
// events, the CSM decision hook emits decisions) and read back by `symsim
// explain`. Every record is a flat JSON object whose "t" field selects the
// type, so the log is greppable, stream-parsable, and extensible — readers
// skip record types they do not know.

// Trace record type tags (the "t" field).
const (
	RecMeta     = "meta"
	RecSpan     = "span"
	RecDecision = "csm"
	RecTrip     = "trip"
	RecDone     = "done"
)

// EndSuperseded is the Span.End of a forked child the frontier dropped when
// it was popped, before any simulation, because a wider sibling covers it.
const EndSuperseded = "superseded"

// Meta opens a trace: what ran and under which knobs.
type Meta struct {
	T       string `json:"t"` // RecMeta
	Design  string `json:"design"`
	Bench   string `json:"bench,omitempty"`
	Policy  string `json:"policy"`
	Engine  string `json:"engine"`
	Workers int    `json:"workers"`
}

// Span records one simulated path segment: where it came from, where it
// halted, and what it cost.
type Span struct {
	T string `json:"t"` // RecSpan
	// ID is the worklist path ID; Parent the ID of the path whose fork
	// created it (-1 for the cold-boot path and for paths restored from a
	// checkpoint, whose parentage the checkpoint does not preserve). A
	// forked child dropped before simulation (End EndSuperseded) never got
	// a path ID: its span has ID -1 and zero cycles.
	ID     int `json:"id"`
	Parent int `json:"parent"`
	// StartPC is the PC of the forked state this segment resumed from
	// (0 for the cold-boot path); HaltPC where it halted or was subsumed.
	StartPC uint64 `json:"startPc"`
	HaltPC  uint64 `json:"haltPc,omitempty"`
	// Forced is "1"/"0" for the branch interpretation this path followed,
	// empty for the cold-boot path.
	Forced string `json:"forced,omitempty"`
	// End is the core.PathEnd name: forked, subsumed, finished,
	// interrupted, quarantined — or EndSuperseded (see ID).
	End string `json:"end"`
	// Cycles is the segment's simulated clock cycles; WallUS its wall-clock
	// simulation time in microseconds (the per-path CPU attribution).
	Cycles uint64 `json:"cycles"`
	WallUS int64  `json:"wallUs"`
	// Pruned is the number of children of this segment's fork (at HaltPC)
	// proven infeasible under the application facts and never created.
	Pruned uint64 `json:"pruned,omitempty"`
}

// Decision records one CSM verdict: the decision log entry behind the
// per-PC merge hot-spot view.
type Decision struct {
	T string `json:"t"` // RecDecision
	// Path is the path segment whose halt was classified (-1 for the
	// force-merges of a degradation drain).
	Path int    `json:"path"`
	PC   uint64 `json:"pc"`
	// Verdict is "subsumed" (the state was a subset of a stored
	// conservative state — the path is skipped), "merged" (a conservative
	// superstate absorbed it) or "new" (stored as an additional state).
	Verdict string `json:"verdict"`
	// XGained is the number of known bits the merge turned into X — the
	// bit-count delta measuring how much over-approximation this merge
	// introduced. Zero for subsumed and new verdicts.
	XGained int `json:"xGained,omitempty"`
	// States is the number of conservative states stored after this
	// decision.
	States int `json:"states"`
}

// TripRec records a governance stop: which budget tripped and when.
type TripRec struct {
	T         string `json:"t"` // RecTrip
	Trip      string `json:"trip"`
	ElapsedMS int64  `json:"elapsedMs"`
}

// Done closes a trace with the run's outcome.
type Done struct {
	T            string `json:"t"` // RecDone
	Complete     bool   `json:"complete"`
	PathsCreated int    `json:"pathsCreated"`
	PathsSkipped int    `json:"pathsSkipped"`
	// PathsSuperseded counts the entries dropped before simulation (the
	// spans with End "superseded").
	PathsSuperseded int    `json:"pathsSuperseded"`
	Cycles          uint64 `json:"cycles"`
	Exercisable     int    `json:"exercisable"`
	TotalGates      int    `json:"totalGates"`
	CSMStates       int    `json:"csmStates"`
	ElapsedMS       int64  `json:"elapsedMs"`
}

// Tracer writes trace records as JSONL. It is safe for concurrent use
// (path workers and the governance watcher emit concurrently) and nil-safe:
// a nil *Tracer drops every record, so callers emit unconditionally and
// the disabled path costs one pointer test.
type Tracer struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewTracer returns a tracer writing JSONL records to w.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one record. The first write error is retained (see Err) and
// later records are dropped.
func (t *Tracer) Emit(rec any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(rec)
}

// Flush drains buffered records to the underlying writer. Call once the
// run is over (the tracer does not own the file handle).
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	t.err = t.w.Flush()
	return t.err
}

// Err returns the first write error, if any.
func (t *Tracer) Err() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// TraceLog is a fully parsed trace file.
type TraceLog struct {
	Meta      *Meta
	Spans     []Span
	Decisions []Decision
	Trips     []TripRec
	Done      *Done
	// Skipped counts records with an unknown "t" tag (written by a newer
	// tool); they are ignored, not errors.
	Skipped int
}

// ReadTrace parses a JSONL trace. Unknown record types are counted and
// skipped; malformed lines are errors.
func ReadTrace(r io.Reader) (*TraceLog, error) {
	log := &TraceLog{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var tag struct {
			T string `json:"t"`
		}
		if err := json.Unmarshal(raw, &tag); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		var err error
		switch tag.T {
		case RecMeta:
			m := &Meta{}
			if err = json.Unmarshal(raw, m); err == nil {
				log.Meta = m
			}
		case RecSpan:
			var s Span
			if err = json.Unmarshal(raw, &s); err == nil {
				log.Spans = append(log.Spans, s)
			}
		case RecDecision:
			var d Decision
			if err = json.Unmarshal(raw, &d); err == nil {
				log.Decisions = append(log.Decisions, d)
			}
		case RecTrip:
			var tr TripRec
			if err = json.Unmarshal(raw, &tr); err == nil {
				log.Trips = append(log.Trips, tr)
			}
		case RecDone:
			d := &Done{}
			if err = json.Unmarshal(raw, d); err == nil {
				log.Done = d
			}
		default:
			log.Skipped++
		}
		if err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	return log, nil
}
