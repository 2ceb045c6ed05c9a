package core

import (
	"testing"

	"symsim/internal/logic"
	"symsim/internal/vvp"
)

// TestFrontierSupersession drives the frontier alone: each case is a
// sequence of pushes followed by the pops it must produce, top of the
// stack first, with the superseded verdict of each.
func TestFrontierSupersession(t *testing.T) {
	// ent builds a forked child at pc following direction forced, whose
	// start state is the bit string bits.
	ent := func(pc uint64, forced logic.Value, bits string) entry {
		return entry{
			state:    vvp.State{Bits: logic.MustVec(bits), PC: pc, PCKnown: true},
			forced:   forced,
			hasForce: true,
		}
	}
	type op struct {
		fork bool // pushFork (classify, resume) vs push (re-queue)
		e    entry
	}
	type popped struct {
		bits       string
		superseded bool
	}
	fork := func(pc uint64, forced logic.Value, bits string) op { return op{true, ent(pc, forced, bits)} }
	requeue := func(pc uint64, forced logic.Value, bits string) op { return op{false, ent(pc, forced, bits)} }

	cases := []struct {
		name string
		ops  []op
		want []popped
	}{
		{
			name: "LIFO order preserved",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(2, logic.Hi, "0001"), fork(1, logic.Lo, "0010")},
			want: []popped{{"0010", false}, {"0001", false}, {"0000", false}},
		},
		{
			name: "strict subset of a later sibling dropped",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Hi, "00xx")},
			want: []popped{{"00xx", false}, {"0000", true}},
		},
		{
			name: "equal state kept",
			ops:  []op{fork(1, logic.Hi, "00xx"), fork(1, logic.Hi, "00xx")},
			want: []popped{{"00xx", false}, {"00xx", false}},
		},
		{
			name: "other direction kept",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Lo, "00xx")},
			want: []popped{{"00xx", false}, {"0000", false}},
		},
		{
			name: "other PC kept",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(2, logic.Hi, "00xx")},
			want: []popped{{"00xx", false}, {"0000", false}},
		},
		{
			name: "incomparable state kept",
			ops:  []op{fork(1, logic.Hi, "0001"), fork(1, logic.Hi, "001x")},
			want: []popped{{"001x", false}, {"0001", false}},
		},
		{
			// latest is the narrower, later entry: the wider one below it
			// is not a subset of it, and the narrower one equals it.
			name: "narrower pushed after wider: both kept",
			ops:  []op{fork(1, logic.Hi, "00xx"), fork(1, logic.Hi, "0000")},
			want: []popped{{"0000", false}, {"00xx", false}},
		},
		{
			// Only the most recent sibling is consulted: 0000 sits under
			// 0xxx but the index holds 0011 by the time it is popped.
			name: "only the latest sibling is consulted",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Hi, "0xxx"), fork(1, logic.Hi, "0011")},
			want: []popped{{"0011", false}, {"0xxx", false}, {"0000", false}},
		},
		{
			// A re-queued entry must not refresh latest: if 0001 replaced
			// 00xx in the index, 0000 below would wrongly survive.
			name: "re-queue does not refresh latest",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Hi, "00xx"), requeue(1, logic.Hi, "0001")},
			want: []popped{{"0001", true}, {"00xx", false}, {"0000", true}},
		},
		{
			name: "resume rebuild from Pending order",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Lo, "1000"), fork(1, logic.Hi, "00xx")},
			want: []popped{{"00xx", false}, {"1000", false}, {"0000", true}},
		},
		{
			// An in-flight segment is appended last in Pending; when it is
			// the narrower one the rebuilt index drops nothing.
			name: "resume rebuild with a narrower in-flight entry last",
			ops:  []op{fork(1, logic.Hi, "0000"), fork(1, logic.Hi, "00xx"), fork(1, logic.Hi, "0001")},
			want: []popped{{"0001", false}, {"00xx", false}, {"0000", false}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var f frontier
			for _, o := range tc.ops {
				if o.fork {
					f.pushFork(o.e)
				} else {
					f.push(o.e)
				}
			}
			if f.len() != len(tc.ops) {
				t.Fatalf("len = %d after %d pushes", f.len(), len(tc.ops))
			}
			for i, w := range tc.want {
				e, superseded, ok := f.pop()
				if !ok {
					t.Fatalf("pop %d: frontier empty", i)
				}
				if got := e.state.Bits.String(); got != w.bits || superseded != w.superseded {
					t.Errorf("pop %d = %s superseded=%v, want %s superseded=%v", i, got, superseded, w.bits, w.superseded)
				}
			}
			if _, _, ok := f.pop(); ok {
				t.Error("frontier not empty after the expected pops")
			}
		})
	}
}

// The cold-boot entry has no branch direction: it never touches the index
// and is never superseded, so a run that does not fork pays no map
// operation at all.
func TestFrontierColdBootIsMapFree(t *testing.T) {
	var f frontier
	f.push(entry{parent: -1})
	f.pushFork(entry{parent: -1}) // a resumed checkpoint's cold-boot entry
	if f.latest != nil {
		t.Error("an entry without a forced direction wrote the index")
	}
	for i := 0; i < 2; i++ {
		if _, superseded, ok := f.pop(); !ok || superseded {
			t.Errorf("pop %d: ok=%v superseded=%v", i, ok, superseded)
		}
	}
}
