package netlist

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"symsim/internal/wire"
)

// This file implements the canonical content hash of a netlist: the
// identity under which analysis results are cached (the service's
// content-addressed result store keys on it), a checkpoint is bound to its
// platform, and `symsim lint` names a design.
//
// The hash is positional: it reads the structure in declaration order,
// so one design hashes alike in every process because elaboration is
// deterministic (TestDesignHashStableAcrossProcesses), and the same
// machine declared in another order is another hash.
//
//   - Rename-stable: net, gate and memory names never enter the hash, so
//     re-reading a design through a tool that renames wires does not
//     invalidate cached results.
//   - Content-sensitive: changing a gate kind or connection, a DFF reset
//     value, a memory parameter or any memory initialization word (the
//     program image lives in ROM init, so the application binary is
//     covered) changes the hash.
//
// It has two levels, because a processor is elaborated once and run under
// many images. The structure digest covers everything but the memory
// contents — the net count, the port lists, each gate's kind, reset value,
// output and input pins, each memory's geometry and pins — and is kept
// with the tables a frozen netlist shares with its views. The image level
// is the SHA-256 of each memory's Init, in memory order, and costs a pass
// over the image. Hash is the digest of both. Net IDs enter as plain
// numbers, so a raw design whose pins name nets that do not exist (lint
// hashes those too) hashes without a special case.

// Digest is a canonical netlist content hash.
type Digest [32]byte

// String returns the digest as lowercase hex.
func (d Digest) String() string { return hex.EncodeToString(d[:]) }

// hashMagic versions the hash construction: bump it whenever what is
// hashed changes so stale cache entries cannot alias new ones.
const hashMagic = wire.HashMagic

// Hash computes the canonical content digest of the netlist. It works on
// frozen and unfrozen designs alike. On a frozen design, view or not, only
// the image level is computed per call — tens of microseconds for a
// processor's program and data memories; the structure digest is computed
// once per design.
func (n *Netlist) Hash() Digest {
	var st Digest
	if n.tables == nil {
		st = n.structureDigest()
	} else {
		n.structOnce.Do(func() { n.structure = n.structureDigest() })
		st = n.structure
	}
	out := append([]byte(hashMagic), st[:]...)
	var buf []byte
	for _, m := range n.Mems {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(m.Init)))
		for _, w := range m.Init {
			buf = w.AppendBinary(buf)
		}
		d := sha256.Sum256(buf)
		out = append(out, d[:]...)
	}
	return sha256.Sum256(out)
}

// structureDigest hashes everything but the memory contents, in
// declaration order and without names.
func (n *Netlist) structureDigest() Digest {
	b := appendUint(nil, len(n.Nets))
	b = appendIDs(b, n.Inputs)
	b = appendIDs(b, n.Outputs)
	b = appendUint(b, len(n.Gates))
	for i := range n.Gates {
		g := &n.Gates[i]
		b = append(b, uint8(g.Kind), uint8(g.Init))
		b = appendUint(b, int(g.Out))
		b = appendIDs(b, g.In)
	}
	b = appendUint(b, len(n.Mems))
	for _, m := range n.Mems {
		b = appendUint(b, m.AddrBits)
		b = appendUint(b, m.DataBits)
		b = appendUint(b, m.Words)
		b = appendUint(b, int(m.Clk))
		b = appendUint(b, int(m.WEn))
		for _, pins := range [][]NetID{m.RAddr, m.RData, m.WAddr, m.WData} {
			b = appendIDs(b, pins)
		}
	}
	return sha256.Sum256(b)
}

// appendUint appends v as four little-endian bytes; a negative ID (NoNet,
// or a dangling one in a raw design) keeps its two's-complement bits.
func appendUint(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

// appendIDs appends a length-prefixed list of net IDs.
func appendIDs(b []byte, ids []NetID) []byte {
	b = appendUint(b, len(ids))
	for _, id := range ids {
		b = appendUint(b, int(id))
	}
	return b
}
