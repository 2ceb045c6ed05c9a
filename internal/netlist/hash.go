package netlist

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"symsim/internal/wire"
)

// This file implements the canonical content hash of a netlist: the
// identity under which analysis results are cached (the service's
// content-addressed result store keys on it) and compared across tools.
//
// The hash is structural, not textual:
//
//   - Rename-stable: net, gate and memory names never enter the hash, so
//     re-reading a design through a tool that renames wires does not
//     invalidate cached results.
//   - Declaration-order independent: permuting the order in which nets,
//     gates or memories were added leaves the hash unchanged. Only the
//     port orders that carry meaning — the primary input/output
//     declaration order and gate pin order — are hashed positionally.
//   - Content-sensitive: changing a gate kind or connection, a DFF reset
//     value, a memory parameter or any memory initialization word (the
//     program image lives in ROM init, so the application binary is
//     covered) changes the hash.
//
// It has two levels, because a processor is elaborated once and run under
// many images. The structure level is Weisfeiler–Lehman style label
// refinement over everything but the memory contents: every net starts
// from a label derived solely from the kind of its driver (with primary
// inputs anchored to their port position), then hashRounds times each
// net's label is re-derived from its driver's kind and the labels on the
// driver's input pins. Its digest combines the position-ordered port
// labels with the sorted multiset of all net labels, which is what makes
// the result independent of declaration order; it costs a pass over the
// design per round and is kept with the tables a frozen netlist shares
// with its views. The image level pairs each memory's structural label —
// one more refinement of the memory as a node, from its geometry and the
// final labels on its pins — with the SHA-256 of its Init and sorts the
// pairs; it costs a pass over the image. Hash is the digest of both.
//
// Labels flow from drivers to readers only, so two memories of one geometry
// behind the same address and write cones carry one label whatever reads
// them, and the sorted pairs alone could not tell which of the two holds
// which contents. When such a pair holds different contents the refinement
// is run again with the contents folded into the memory labels, where they
// reach every reader; no shipped processor has such a pair.

// Digest is a canonical netlist content hash.
type Digest [32]byte

// String returns the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// hashMagic versions the hash construction: bump it whenever the label
// derivation changes so stale cache entries cannot alias new ones.
const hashMagic = wire.HashMagic

// hashRounds is the number of label-refinement rounds. Each round extends
// every net's structural horizon by one driver level; eight rounds
// discriminate the symmetric subgraphs that occur in practice while
// keeping the hash linear-time. Sensitivity to single-element changes does
// not depend on the round count: a changed element perturbs its own label
// in round one and the sorted multiset carries every label into the
// digest.
const hashRounds = 8

type label = [32]byte

// structure is the outcome of one label refinement: the digest over the
// port and net labels, and the structural label of each memory.
type structure struct {
	digest Digest
	mems   []label
}

// Hash computes the canonical content digest of the netlist. It works on
// frozen and unfrozen designs alike (undriven nets hash under a distinct
// tag). On a frozen design, view or not, only the image level is computed
// per call — tens of microseconds for a processor's program and data
// memories; the structure level is computed once per design.
func (n *Netlist) Hash() Digest {
	var st structure
	if n.tables == nil {
		st = n.refine(false)
	} else {
		n.structOnce.Do(func() { n.structure = n.refine(false) })
		st = n.structure
	}

	type pair struct{ mem, init label }
	pairs := make([]pair, len(n.Mems))
	var buf []byte
	for mi, m := range n.Mems {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(m.Init)))
		for _, w := range m.Init {
			buf = w.AppendBinary(buf)
		}
		pairs[mi] = pair{st.mems[mi], sha256.Sum256(buf)}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if c := bytes.Compare(pairs[i].mem[:], pairs[j].mem[:]); c != 0 {
			return c < 0
		}
		return bytes.Compare(pairs[i].init[:], pairs[j].init[:]) < 0
	})

	out := []byte(hashMagic)
	for i, p := range pairs {
		if i > 0 && p.mem == pairs[i-1].mem && p.init != pairs[i-1].init {
			folded := n.refine(true).digest
			return sha256.Sum256(append(append(out, "folded:"...), folded[:]...))
		}
	}
	out = append(out, st.digest[:]...)
	for _, p := range pairs {
		out = append(out, p.mem[:]...)
		out = append(out, p.init[:]...)
	}
	return sha256.Sum256(out)
}

// refine runs the label refinement. With foldInit the memory contents are
// part of each memory's parameters, so they reach the label of every net
// downstream of a read port; without, the result depends on the structure
// alone.
func (n *Netlist) refine(foldInit bool) structure {
	// Per-memory structural parameter hash (ports excluded: they are
	// folded in through the read-data labels each round).
	memParam := make([]label, len(n.Mems))
	for mi, m := range n.Mems {
		var buf []byte
		buf = append(buf, "mem:"...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.AddrBits))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.DataBits))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Words))
		if m.IsROM() {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		if foldInit {
			for _, w := range m.Init {
				buf = w.AppendBinary(buf)
			}
		}
		memParam[mi] = sha256.Sum256(buf)
	}

	// rdataOf[net] locates the memory read-data bit driving a net, since
	// Net.Driver is NoGate for memory-driven nets.
	type rdata struct {
		mem MemID
		bit int
	}
	rdataOf := make(map[NetID]rdata)
	for mi, m := range n.Mems {
		for bit, rd := range m.RData {
			rdataOf[rd] = rdata{MemID(mi), bit}
		}
	}
	inputPos := make(map[NetID]int, len(n.Inputs))
	for i, in := range n.Inputs {
		inputPos[in] = i
	}

	// Initial labels: inputs anchored by port position, everything else by
	// the kind of its source.
	cur := make([]label, len(n.Nets))
	next := make([]label, len(n.Nets))
	var buf []byte
	// ref folds a referenced net's previous-round label into buf. Raw
	// (unvalidated) designs may reference out-of-range nets — lint hashes
	// those too — so a dangling reference gets a distinct tag instead of
	// panicking.
	ref := func(prev []label, p NetID) {
		if p < 0 || int(p) >= len(prev) {
			buf = append(buf, "dangling"...)
			return
		}
		buf = append(buf, prev[p][:]...)
	}
	// memRefs folds the labels on a memory's input pins into buf.
	memRefs := func(prev []label, m *Mem) {
		for _, p := range m.RAddr {
			ref(prev, p)
		}
		if !m.IsROM() {
			ref(prev, m.Clk)
			ref(prev, m.WEn)
			for _, p := range m.WAddr {
				ref(prev, p)
			}
			for _, p := range m.WData {
				ref(prev, p)
			}
		}
	}
	relabel := func(id NetID, prev []label) label {
		buf = buf[:0]
		if pos, ok := inputPos[id]; ok {
			buf = append(buf, "in:"...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(pos))
			return sha256.Sum256(buf)
		}
		if rd, ok := rdataOf[id]; ok {
			m := n.Mems[rd.mem]
			buf = append(buf, "rd:"...)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(rd.bit))
			buf = append(buf, memParam[rd.mem][:]...)
			if prev != nil {
				memRefs(prev, m)
			}
			return sha256.Sum256(buf)
		}
		if g := n.Nets[id].Driver; g != NoGate {
			gate := &n.Gates[g]
			buf = append(buf, "gate:"...)
			buf = append(buf, uint8(gate.Kind), uint8(gate.Init))
			if prev != nil {
				for _, p := range gate.In {
					if p == NoNet {
						buf = append(buf, "nc"...)
						continue
					}
					ref(prev, p)
				}
			}
			return sha256.Sum256(buf)
		}
		return sha256.Sum256(append(buf, "undriven"...))
	}

	for id := range n.Nets {
		cur[id] = relabel(NetID(id), nil)
	}
	for round := 0; round < hashRounds; round++ {
		for id := range n.Nets {
			next[id] = relabel(NetID(id), cur)
		}
		cur, next = next, cur
	}

	// Final digest: global shape, position-ordered ports, then the sorted
	// multiset of every net label (declaration-order independence).
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, uint32(len(n.Nets)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(n.Gates)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(n.Mems)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(n.Inputs)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(n.Outputs)))
	for _, in := range n.Inputs {
		if in < 0 || int(in) >= len(cur) {
			out = append(out, "dangling"...)
			continue
		}
		out = append(out, cur[in][:]...)
	}
	for _, o := range n.Outputs {
		if o < 0 || int(o) >= len(cur) {
			out = append(out, "dangling"...)
			continue
		}
		out = append(out, cur[o][:]...)
	}
	all := make([]label, len(n.Nets))
	copy(all, cur)
	sort.Slice(all, func(i, j int) bool {
		for k := 0; k < len(all[i]); k++ {
			if all[i][k] != all[j][k] {
				return all[i][k] < all[j][k]
			}
		}
		return false
	})
	for _, l := range all {
		out = append(out, l[:]...)
	}
	st := structure{digest: sha256.Sum256(out), mems: make([]label, len(n.Mems))}
	for mi, m := range n.Mems {
		buf = append(buf[:0], memParam[mi][:]...)
		memRefs(cur, m)
		st.mems[mi] = sha256.Sum256(buf)
	}
	return st
}
