package service

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"symsim/internal/cliflags"
	"symsim/internal/netlist"
	"symsim/internal/obs"
)

func TestNormalizeFillsDefaults(t *testing.T) {
	def := JobSpec{Policy: "clustered", K: 8, Engine: "batch", MemX: "sound", Workers: 3, DeadlineMS: 1000}
	got, err := normalize(JobSpec{Design: "dr5", Bench: "tea8"}, &def)
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 8,
		Engine: "batch", MemX: "sound", Workers: 3, DeadlineMS: 1000}
	if got != want {
		t.Errorf("normalize = %+v, want %+v", got, want)
	}
}

func TestNormalizeBuiltinFallbacks(t *testing.T) {
	got, err := normalize(JobSpec{Design: "dr5", Bench: "mult"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "merge-all" || got.Engine != "kernel" || got.MemX != "verilog" || got.Workers != 1 {
		t.Errorf("fallbacks wrong: %+v", got)
	}
}

// Parameters irrelevant to the selected policy must be normalized away, so
// equivalent submissions share one canonical spec (and one cache key).
func TestNormalizeCanonicalizesPolicyParams(t *testing.T) {
	a, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all", K: 9, MaxStates: 77}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("equivalent merge-all specs differ: %+v vs %+v", a, b)
	}
	var hash netlist.Digest
	if cacheKey(hash, a) != cacheKey(hash, b) {
		t.Error("equivalent specs got different cache keys")
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"missing design", JobSpec{Bench: "b"}, "missing design"},
		{"missing bench", JobSpec{Design: "d"}, "missing bench"},
		{"unknown policy", JobSpec{Design: "d", Bench: "b", Policy: "bogus"}, "policy"},
		{"constrained unsupported", JobSpec{Design: "d", Bench: "b", Policy: "constrained"}, "policy"},
		{"clustered needs k", JobSpec{Design: "d", Bench: "b", Policy: "clustered", K: -1}, "k > 0"},
		{"exact needs budget", JobSpec{Design: "d", Bench: "b", Policy: "exact", MaxStates: -1}, "maxStates > 0"},
		{"bad engine", JobSpec{Design: "d", Bench: "b", Engine: "vhdl"}, "engine"},
		{"interpreter not selectable", JobSpec{Design: "d", Bench: "b", Engine: "interp"}, "want kernel | batch"},
		{"bad memx", JobSpec{Design: "d", Bench: "b", MemX: "maybe"}, "memx"},
		{"negative budget", JobSpec{Design: "d", Bench: "b", MaxForks: -1}, "negative"},
		{"lanes over cap", JobSpec{Design: "d", Bench: "b", Lanes: 65}, "lanes"},
		{"negative lanes", JobSpec{Design: "d", Bench: "b", Lanes: -1}, "lanes"},
		{"priority range", JobSpec{Design: "d", Bench: "b", Priority: 1 << 21}, "priority"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := normalize(tc.spec, nil)
			var bad *BadSpecError
			if !errors.As(err, &bad) {
				t.Fatalf("want BadSpecError, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// The cache key must cover exactly the result-affecting inputs: design
// content, design/bench selection, policy (with its live parameters) and
// memory-X semantics — and nothing else.
func TestCacheKeySensitivity(t *testing.T) {
	base := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4, Engine: "kernel", MemX: "verilog", Workers: 1}
	var h1, h2 netlist.Digest
	h2[0] = 1
	key := cacheKey(h1, base)

	diff := func(name string, spec JobSpec, hash netlist.Digest) {
		if got := cacheKey(hash, spec); got == key {
			t.Errorf("%s: cache key did not change", name)
		}
	}
	same := func(name string, spec JobSpec) {
		if got := cacheKey(h1, spec); got != key {
			t.Errorf("%s: cache key changed but result cannot", name)
		}
	}

	diff("design hash", base, h2)
	diff("bench", JobSpec{Design: "dr5", Bench: "mult", Policy: "clustered", K: 4, MemX: "verilog"}, h1)
	diff("policy", JobSpec{Design: "dr5", Bench: "tea8", Policy: "merge-all", MemX: "verilog"}, h1)
	diff("policy param", JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 8, MemX: "verilog"}, h1)
	diff("memx", JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4, MemX: "sound"}, h1)

	eng := base
	eng.Engine = "batch"
	same("engine", eng)
	wrk := base
	wrk.Workers = 8
	same("workers", wrk)
	lns := base
	lns.Lanes = 16
	same("lanes", lns)
	bud := base
	bud.DeadlineMS = 5000
	bud.MaxForks = 100
	same("budgets", bud)
	pri := base
	pri.Priority = 10
	same("priority", pri)
}

// TestSpecGoldenFromParent pins compatibility across the move of the spec
// into cliflags: testdata/spec_golden.json was captured at the commit
// before it (PR 23) — request bodies, the daemon flags they met, and what
// that commit's normalize, cacheKey and record encoder made of them. Every
// request the job API accepted then must normalize to the same spec, the
// same SYMSIMK2 key and the same SYMSIMJ2 record bytes now, and the old
// record bytes must load.
func TestSpecGoldenFromParent(t *testing.T) {
	data, err := os.ReadFile("testdata/spec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name       string          `json:"name"`
		Flags      []string        `json:"daemonFlags"` // null: a service built with nil Defaults
		Spec       json.RawMessage `json:"spec"`
		Normalized json.RawMessage `json:"normalized"`
		CacheKey   string          `json:"cacheKey"`
		Record     string          `json:"recordHex"`
	}
	if err := json.Unmarshal(data, &cases); err != nil {
		t.Fatal(err)
	}
	if len(cases) < 6 {
		t.Fatalf("golden holds %d specs, want at least 6", len(cases))
	}
	var hash netlist.Digest
	for i := range hash {
		hash[i] = byte(i * 7)
	}
	for _, tc := range cases {
		t.Run(tc.Name, func(t *testing.T) {
			var def *JobSpec
			if tc.Flags != nil {
				fs := flag.NewFlagSet("symsimd", flag.ContinueOnError)
				a := cliflags.Register(fs)
				if err := fs.Parse(tc.Flags); err != nil {
					t.Fatal(err)
				}
				def = &a.Spec
			}
			var spec JobSpec
			if err := json.Unmarshal(tc.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			n, err := normalize(spec, def)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(n)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, tc.Normalized); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("normalized spec\n got %s\nwant %s", got, want.Bytes())
			}
			if key := cacheKey(hash, n); key != tc.CacheKey {
				t.Errorf("cache key %s, want %s", key, tc.CacheKey)
			}
			rec := &jobRecord{ID: "0123456789abcdef01234567", Spec: n, State: StateQueued,
				Submitted: 1_722_000_000_000_000_001, CacheKey: tc.CacheKey, DesignHash: hash.String()}
			if got := hex.EncodeToString(rec.encode()); got != tc.Record {
				t.Errorf("record bytes\n got %s\nwant %s", got, tc.Record)
			}
			old, err := hex.DecodeString(tc.Record)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := decodeJobRecord(old)
			if err != nil {
				t.Fatalf("the parent's record does not load: %v", err)
			}
			if loaded.Spec != n {
				t.Errorf("loaded spec %+v, want %+v", loaded.Spec, n)
			}
		})
	}
}

// TestSubmitBodyIsBounded: POST /jobs reads at most 1 MiB of body. Two MiB
// of whitespace in front of a valid spec is refused without creating a job
// (the unbounded decoder read it all and accepted the job).
func TestSubmitBodyIsBounded(t *testing.T) {
	svc, err := New(Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry(), BuildPlatform: loopPlatform(t, 0x1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	body := append(bytes.Repeat([]byte{' '}, 2<<20), `{"design":"dr5","bench":"loop"}`...)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 || resp.StatusCode > 499 {
		t.Errorf("oversized body answered %s, want a 4xx", resp.Status)
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized body created %d job(s)", len(jobs))
	}
}
