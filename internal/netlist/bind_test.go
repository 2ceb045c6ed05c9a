package netlist_test

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"symsim/internal/logic"
	"symsim/internal/netlist"
)

func words(width int, vals ...uint64) []logic.Vec {
	out := make([]logic.Vec, len(vals))
	for i, v := range vals {
		out[i] = logic.NewVecUint64(width, v)
	}
	return out
}

// A view shares every table with its base and owns only its memory
// contents.
func TestBindSharesStructureAndOwnsInit(t *testing.T) {
	base := hashDesign(t, baseOpts("u_"))
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	a, err := base.Bind(map[string][]logic.Vec{"u_ram": words(1, 1, 0)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := base.Bind(map[string][]logic.Vec{"u_ram": words(1, 0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if a.Program() != base.Program() || b.Program() != base.Program() {
		t.Error("views do not share the base's compiled Program")
	}
	if &a.Nets[0] != &base.Nets[0] || &a.Gates[0] != &base.Gates[0] {
		t.Error("a view copied the net or gate table")
	}
	if a.Mems[0] == base.Mems[0] || a.Mems[0] == b.Mems[0] {
		t.Error("views share a *Mem")
	}
	if &a.Mems[0].Init[0] == &b.Mems[0].Init[0] || &a.Mems[0].Init[0] == &base.Mems[0].Init[0] {
		t.Error("views share an Init backing array")
	}
	// Apart from Init the memory is the base's.
	am, bm := *a.Mems[0], *base.Mems[0]
	am.Init, bm.Init = nil, nil
	if !reflect.DeepEqual(am, bm) {
		t.Errorf("bound memory differs from the base's beyond Init:\n%+v\n%+v", am, bm)
	}
	if got := base.Mems[0].Init[0]; !got.Equal(logic.NewVecUint64(1, 0)) {
		t.Errorf("Bind wrote to the base's contents: word 0 = %s", got)
	}
	if err := a.Freeze(); err != nil {
		t.Errorf("Freeze on a view: %v", err)
	}
	if a.Hash() == b.Hash() {
		t.Error("views with different contents hash equal")
	}

	// A memory not named keeps the base's contents.
	c, err := base.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Hash() != base.Hash() {
		t.Error("a view that binds nothing hashes differently from its base")
	}
	if _, err := base.Bind(map[string][]logic.Vec{"nope": nil}); err == nil || !strings.Contains(err.Error(), `"nope"`) {
		t.Errorf("binding an unknown memory: err = %v", err)
	}
}

// A view's hash is the hash of the same design elaborated with those
// contents in place: nothing about a view is visible in its digest.
func TestBindHashMatchesIndependentNetlist(t *testing.T) {
	base := hashDesign(t, baseOpts("u_"))
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	o := baseOpts("other_")
	o.memWord = 1
	want := hashDesign(t, o).Hash()
	v, err := base.Bind(map[string][]logic.Vec{"u_ram": words(1, 1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if v.Hash() != want {
		t.Errorf("view hashes %s, independent netlist %s", v.Hash(), want)
	}
	var ser bytes.Buffer
	if err := v.Write(&ser); err != nil {
		t.Fatal(err)
	}
	back, err := netlist.Read(&ser)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != want {
		t.Errorf("view read back hashes %s, want %s", back.Hash(), want)
	}
}

// The structure could still change under a view of an unfrozen netlist;
// Bind refuses the same way Program does.
func TestBindBeforeFreezePanics(t *testing.T) {
	for name, f := range map[string]func(n *netlist.Netlist){
		"Bind":    func(n *netlist.Netlist) { _, _ = n.Bind(nil) },
		"Program": func(n *netlist.Netlist) { n.Program() },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(r.(string), "before Freeze") {
					t.Errorf("%s on an unfrozen netlist: recovered %v", name, r)
				}
			}()
			f(hashDesign(t, baseOpts("u_")))
		}()
	}
}

// Derived computes once per design and key, views included, also under
// concurrent first use; an unfrozen netlist keeps nothing.
func TestDerivedOncePerDesign(t *testing.T) {
	base := hashDesign(t, baseOpts("u_"))
	var calls atomic.Int32
	compute := func() any { return calls.Add(1) }
	base.Derived("k", compute)
	base.Derived("k", compute)
	if calls.Load() != 2 {
		t.Fatalf("unfrozen netlist cached a derived value: %d computations", calls.Load())
	}
	if err := base.Freeze(); err != nil {
		t.Fatal(err)
	}
	v, err := base.Bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		n := base
		if i%2 == 1 {
			n = v
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := n.Derived("k", compute); got != int32(1) {
				t.Errorf("Derived = %v, want 1", got)
			}
		}()
	}
	wg.Wait()
	if base.Derived("other", compute) != int32(2) {
		t.Error("a second key did not get its own computation")
	}
}
