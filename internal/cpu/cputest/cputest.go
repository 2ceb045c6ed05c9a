// Package cputest provides the readers the processor packages' functional
// tests use on a finished concrete run, core.Platform.RunConcrete: memory
// words and buses by name.
package cputest

import (
	"fmt"

	"symsim/internal/logic"
	"symsim/internal/netlist"
	"symsim/internal/vvp"
)

// MemWord reads word index of the named memory as a ternary vector.
func MemWord(sim *vvp.Simulator, memName string, index int) (logic.Vec, error) {
	id, ok := sim.Design().MemByName(memName)
	if !ok {
		return logic.Vec{}, fmt.Errorf("cputest: no memory %q", memName)
	}
	return sim.MemWord(id, index), nil
}

// MemUint reads word index of the named memory as an unsigned integer; it
// fails if any bit is X.
func MemUint(sim *vvp.Simulator, memName string, index int) (uint64, error) {
	v, err := MemWord(sim, memName, index)
	if err != nil {
		return 0, err
	}
	u, ok := v.Uint64()
	if !ok {
		return 0, fmt.Errorf("cputest: %s[%d] = %s contains X", memName, index, v)
	}
	return u, nil
}

// BusValue reads a named bus ("name[0]", "name[1]", ... or scalar "name").
func BusValue(sim *vvp.Simulator, name string) (logic.Vec, error) {
	d := sim.Design()
	if id, ok := d.NetByName(name); ok {
		v := logic.NewVec(1)
		v.Set(0, sim.Value(id))
		return v, nil
	}
	var nets []netlist.NetID
	for i := 0; ; i++ {
		id, ok := d.NetByName(fmt.Sprintf("%s[%d]", name, i))
		if !ok {
			break
		}
		nets = append(nets, id)
	}
	if len(nets) == 0 {
		return logic.Vec{}, fmt.Errorf("cputest: no bus %q", name)
	}
	return sim.VecValue(nets), nil
}
