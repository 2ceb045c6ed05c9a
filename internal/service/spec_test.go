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
	"regexp"
	"strings"
	"testing"

	"symsim/internal/cliflags"
	"symsim/internal/netlist"
	"symsim/internal/obs"
)

// TestNormalizeFillsDefaults: what a body leaves out takes the flag
// default, whatever daemon it reaches, and a worker count it names is
// dropped — every door runs one explorer.
func TestNormalizeFillsDefaults(t *testing.T) {
	got, err := normalize(JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", Workers: 3, DeadlineMS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	want := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4, DeadlineMS: 1000}
	if got != want {
		t.Errorf("normalize = %+v, want %+v", got, want)
	}
}

func TestNormalizeBuiltinFallbacks(t *testing.T) {
	got, err := normalize(JobSpec{Design: "dr5", Bench: "mult"})
	if err != nil {
		t.Fatal(err)
	}
	if got.Policy != "merge-all" || got.Workers != 0 {
		t.Errorf("fallbacks wrong: %+v", got)
	}
}

// Parameters irrelevant to the selected policy must be normalized away, so
// equivalent submissions share one canonical spec (and one cache key).
func TestNormalizeCanonicalizesPolicyParams(t *testing.T) {
	a, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all", K: 9, MaxStates: 77})
	if err != nil {
		t.Fatal(err)
	}
	b, err := normalize(JobSpec{Design: "d", Bench: "b", Policy: "merge-all"})
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
		{"negative budget", JobSpec{Design: "d", Bench: "b", MaxForks: -1}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := normalize(tc.spec)
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
// content, design/bench selection and policy (with its live parameters) —
// and nothing else.
func TestCacheKeySensitivity(t *testing.T) {
	base := JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 4}
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
	diff("bench", JobSpec{Design: "dr5", Bench: "mult", Policy: "clustered", K: 4}, h1)
	diff("policy", JobSpec{Design: "dr5", Bench: "tea8", Policy: "merge-all"}, h1)
	diff("policy param", JobSpec{Design: "dr5", Bench: "tea8", Policy: "clustered", K: 8}, h1)

	wrk := base
	wrk.Workers = 8
	same("workers", wrk)
	bud := base
	bud.DeadlineMS = 5000
	bud.MaxForks = 100
	same("budgets", bud)
}

// TestRetiredSpecFieldsAreIgnored: a POST /jobs body naming the engine,
// the lane count, a queue priority or a worker count, as a client of an
// older daemon may send, is accepted (201) as the analysis without them:
// the same normalized spec and the same cache key, whatever values it
// names — an older daemon refused the last two engine/lane bodies and the
// out-of-range priority.
func TestRetiredSpecFieldsAreIgnored(t *testing.T) {
	svc, err := New(Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry(), buildPlatform: loopPlatform(t, 0x1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	var plain JobView
	for i, body := range []string{
		`{"design":"dr5","bench":"loop"}`,
		`{"design":"dr5","bench":"loop","engine":"batch","lanes":8}`,
		`{"design":"dr5","bench":"loop","engine":"kernel","lanes":0}`,
		`{"design":"dr5","bench":"loop","engine":"interp","lanes":65}`,
		`{"design":"dr5","bench":"loop","priority":3}`,
		`{"design":"dr5","bench":"loop","priority":-2097152,"engine":"batch"}`,
		`{"design":"dr5","bench":"loop","workers":0}`,
		`{"design":"dr5","bench":"loop","workers":2}`,
		`{"design":"dr5","bench":"loop","workers":64,"priority":1}`,
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var view JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("%s: status %s, decode %v", body, resp.Status, err)
		}
		if i == 0 {
			plain = view
			continue
		}
		if view.Spec != plain.Spec || view.CacheKey != plain.CacheKey {
			t.Errorf("%s: spec %+v key %s, want the plain body's %+v key %s", body, view.Spec, view.CacheKey, plain.Spec, plain.CacheKey)
		}
	}
}

// TestSubmitBodyIsTheBareRequest: the body symsim submit posts when no
// tuning flag is given — its shared flags' defaults marshalled beside the
// design and bench, as submitCmd builds it — and a bare
// {"design","bench"} body are one request: the same normalized spec and
// the same cache key. No daemon fills either from defaults of its own.
func TestSubmitBodyIsTheBareRequest(t *testing.T) {
	svc, err := New(Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry(), buildPlatform: loopPlatform(t, 0x1)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(Handler(svc))
	defer ts.Close()

	fs := flag.NewFlagSet("symsim submit", flag.ContinueOnError)
	tuning := cliflags.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	spec := tuning.Spec
	spec.Design, spec.Bench = "dr5", "loop"
	submitted, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var views [2]JobView
	for i, body := range []string{string(submitted), `{"design":"dr5","bench":"loop"}`} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&views[i])
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated || err != nil {
			t.Fatalf("%s: status %s, decode %v", body, resp.Status, err)
		}
	}
	if views[0].Spec != views[1].Spec || views[0].CacheKey != views[1].CacheKey {
		t.Errorf("submit's body %s: spec %+v key %s; the bare body: spec %+v key %s",
			submitted, views[0].Spec, views[0].CacheKey, views[1].Spec, views[1].CacheKey)
	}
}

// retiredSpecFields matches, in compact JSON, the spec fields a parent
// normalized and this tree no longer has or no longer reads.
var retiredSpecFields = regexp.MustCompile(`,"(memx|engine)":"[^"]*"|,"(workers|lanes|priority)":-?\d+`)

// TestSpecGoldenFromParent pins compatibility across the move of the spec
// into cliflags: testdata/spec_golden.json was captured at the commit
// before it — request bodies and what that commit's normalize, cacheKey
// and record encoder made of them on a daemon with no analysis flags of
// its own (symsimd takes none now). Every request the job API accepted
// then must normalize to the same spec less its X-address write rule,
// engine, worker count, lane count and queue priority, which are gone or
// no longer read, and the old record bytes must load. The record written
// now is the SYMSIMJ3 image of the same record: the old SYMSIMJ2 bytes
// less the rule, with the engine, worker, lane and priority slots emptied.
// Its key must differ from the old SYMSIMK2 key, so a result computed
// under the dropped Verilog rule is never served.
func TestSpecGoldenFromParent(t *testing.T) {
	data, err := os.ReadFile("testdata/spec_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Name       string          `json:"name"`
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
			var spec JobSpec
			if err := json.Unmarshal(tc.Spec, &spec); err != nil {
				t.Fatal(err)
			}
			n, err := normalize(spec)
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
			var old struct {
				Rule     string `json:"memx"`
				Engine   string `json:"engine"`
				Workers  int    `json:"workers"`
				Lanes    int    `json:"lanes"`
				Priority int    `json:"priority"`
			}
			if err := json.Unmarshal(tc.Normalized, &old); err != nil {
				t.Fatal(err)
			}
			less := retiredSpecFields.ReplaceAll(want.Bytes(), nil)
			if !bytes.Equal(got, less) {
				t.Errorf("normalized spec\n got %s\nwant %s", got, less)
			}
			if key := cacheKey(hash, n); key == tc.CacheKey {
				t.Errorf("cache key %s is the parent's", key)
			}
			rec := &jobRecord{ID: "0123456789abcdef01234567", Spec: n, State: StateQueued,
				Submitted: 1_722_000_000_000_000_001, CacheKey: tc.CacheKey, DesignHash: hash.String()}
			if got := hex.EncodeToString(parent{magic: jobMagicV2, engine: old.Engine, rule: old.Rule, workers: old.Workers, lanes: old.Lanes, priority: old.Priority}.image(rec)); got != tc.Record {
				t.Errorf("record bytes with the rule, engine, workers, lanes and priority put back\n got %s\nwant %s", got, tc.Record)
			}
			img, err := hex.DecodeString(tc.Record)
			if err != nil {
				t.Fatal(err)
			}
			loaded, err := decodeJobRecord(img)
			if err != nil {
				t.Fatalf("the parent's record does not load: %v", err)
			}
			if loaded.Spec != n {
				t.Errorf("loaded spec %+v, want %+v under %s", loaded.Spec, n, old.Rule)
			}
			if !bytes.Equal(loaded.encode(), rec.encode()) {
				t.Error("the parent's record does not re-encode as its version-3 image")
			}
		})
	}
}

// TestSubmitBodyIsBounded: POST /jobs reads at most 1 MiB of body. Two MiB
// of whitespace in front of a valid spec is refused without creating a job
// (the unbounded decoder read it all and accepted the job).
func TestSubmitBodyIsBounded(t *testing.T) {
	svc, err := New(Config{DataDir: t.TempDir(), Workers: 1, Metrics: obs.NewRegistry(), buildPlatform: loopPlatform(t, 0x1)})
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
