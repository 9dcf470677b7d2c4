// Package mpi implements an MPI-style messaging layer over the minimal
// machine interface, substantiating the paper's §3.1.3 claim: the MMI
// deliberately omits tag/source-indexed retrieval and delivery-order
// bookkeeping, "yet it is possible to provide an efficient MPI-style
// retrieval on top of this interface."
//
// The layer provides the MPI surface that claim is about: sends and
// receives addressed by (source, tag) with MPI_ANY_SOURCE/MPI_ANY_TAG
// wildcards, a Status result, ordered delivery between pairs (inherited
// from the substrate's non-overtaking links plus FIFO parking), probes,
// Sendrecv, and the core collectives — Barrier, Bcast, Reduce,
// Allreduce, Gather — built on the EMI's spanning-tree processor groups.
// Like PVM and NX it is a single-process-module layer (§2.1), built on a
// private instance of the sm engine.
package mpi

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
	"converse/internal/emi"
	"converse/internal/lang/sm"
	"converse/internal/msgmgr"
)

// Wildcards for Recv/Probe.
const (
	AnySource = msgmgr.Wildcard
	AnyTag    = msgmgr.Wildcard
)

// Reduction operations for Reduce/Allreduce.
const (
	OpSum  = emi.OpSum
	OpMax  = emi.OpMax
	OpMin  = emi.OpMin
	OpProd = emi.OpProd
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Count  int // full length of the received message in bytes
}

// MPI is the per-processor MPI-style runtime ("communicator world").
type MPI struct {
	p   *core.Proc
	s   *emi.State
	all *emi.Pgrp
	e   *sm.SM // private tagged-messaging engine: MPI's handler and mailbox
}

// userTagLimit bounds user tags. Collectives draw their tags from the
// engine's reserved range above sm.Internal, the way MPI gives
// collective traffic its own communicator context.
const userTagLimit = 1 << 29

// extKey locates the MPI state in a Proc.
const extKey = "converse.lang.mpi"

// Attach creates (or returns) the processor's MPI-style layer; it
// initializes the EMI if needed.
func Attach(p *core.Proc) *MPI {
	if m, ok := p.Ext(extKey).(*MPI); ok {
		return m
	}
	m := &MPI{p: p, s: emi.Init(p)}
	m.all = m.s.AllGroup()
	m.e = sm.New(p)
	p.SetExt(extKey, m)
	return m
}

// Rank returns the calling processor's rank (MPI_Comm_rank).
func (m *MPI) Rank() int { return m.p.MyPe() }

// Size returns the communicator size (MPI_Comm_size).
func (m *MPI) Size() int { return m.p.NumPes() }

// Send transmits data to rank dst under tag (MPI_Send). The buffer may
// be reused on return.
func (m *MPI) Send(data []byte, dst, tag int) {
	if tag < 0 || tag >= userTagLimit {
		panic(fmt.Sprintf("mpi: rank %d: tag %d outside the user range", m.Rank(), tag))
	}
	m.e.SendTagged(dst, tag, data)
}

// Recv blocks until a message matching (src, tag) — either may be a
// wildcard — arrives, copies at most len(buf) bytes into buf, and
// returns the status (MPI_Recv). Matching is FIFO among candidates, so
// pairwise delivery order is preserved, as MPI requires.
func (m *MPI) Recv(buf []byte, src, tag int) Status {
	data, rsrc, rtag := m.e.RecvTagged(tag, src)
	copy(buf, data)
	return Status{Source: rsrc, Tag: rtag, Count: len(data)}
}

// Probe blocks until a matching message is available and returns its
// status without receiving it (MPI_Probe).
func (m *MPI) Probe(src, tag int) Status {
	size, rsrc, rtag := m.e.WaitPeek(tag, src)
	return Status{Source: rsrc, Tag: rtag, Count: size}
}

// Iprobe reports whether a matching message is available, without
// blocking (MPI_Iprobe).
func (m *MPI) Iprobe(src, tag int) (Status, bool) {
	m.e.Drain()
	if size, rsrc, rtag, ok := m.e.Peek(tag, src); ok {
		return Status{Source: rsrc, Tag: rtag, Count: size}, true
	}
	return Status{}, false
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv), safe
// against the head-on exchange that deadlocks naive code.
func (m *MPI) Sendrecv(sendBuf []byte, dst, sendTag int, recvBuf []byte, src, recvTag int) Status {
	m.Send(sendBuf, dst, sendTag)
	return m.Recv(recvBuf, src, recvTag)
}

// --- collectives (spanning-tree, via the EMI group machinery) ---

// Barrier blocks until every rank has entered it (MPI_Barrier).
func (m *MPI) Barrier() { m.s.Barrier(m.all) }

// Bcast distributes buf from the root to every rank: the root's buf is
// sent, others' buf is filled (MPI_Bcast). All ranks pass buffers of
// the same length.
func (m *MPI) Bcast(buf []byte, root int) {
	tag := m.e.NextInternalTag()
	if m.Rank() == root {
		// Tree fan-out rooted at the broadcast root: recursive halving
		// over ranks rotated so the root is rank 0.
		m.fanout(buf, root, 0, m.Size(), tag)
		return
	}
	m.recvColl(buf, tag)
}

// fanout ships halves of the rotated rank range [lo,hi) onward.
func (m *MPI) fanout(buf []byte, root, lo, hi, tag int) {
	for hi-lo > 1 {
		mid := (lo + hi + 1) / 2
		dst := (root + mid) % m.Size()
		// Prefix the payload with the subrange for further forwarding.
		env := make([]byte, 8+len(buf))
		binary.LittleEndian.PutUint32(env[0:], uint32(mid))
		binary.LittleEndian.PutUint32(env[4:], uint32(hi))
		copy(env[8:], buf)
		m.e.SendTagged(dst, tag, env)
		hi = mid
	}
}

// recvColl receives a fan-out envelope, forwards its subranges, and
// copies the payload into buf.
func (m *MPI) recvColl(buf []byte, tag int) {
	tmp := make([]byte, 8+len(buf))
	st := m.Recv(tmp, AnySource, tag)
	lo := int(binary.LittleEndian.Uint32(tmp[0:]))
	hi := int(binary.LittleEndian.Uint32(tmp[4:]))
	payload := tmp[8:st.Count]
	// Determine the root from the sender and our rotated position:
	// root = (rank - lo) mod size.
	root := ((m.Rank()-lo)%m.Size() + m.Size()) % m.Size()
	m.fanout(payload, root, lo, hi, tag)
	copy(buf, payload)
}

// Reduce combines every rank's contribution with op, delivering the
// result at the requested root; other ranks get 0 (MPI_Reduce over
// int64). Every rank must call it. If root is not the group tree's
// root, the result is relayed there with a collective-tagged message.
func (m *MPI) Reduce(contrib int64, op emi.ReduceOp, root int) int64 {
	r, isRoot := m.s.Reduce(m.all, contrib, op)
	treeRoot := m.all.RootPE()
	if root == treeRoot {
		if isRoot {
			return r
		}
		return 0
	}
	tag := m.e.NextInternalTag()
	if isRoot {
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, uint64(r))
		m.e.SendTagged(root, tag, out)
		return 0
	}
	if m.Rank() == root {
		buf := make([]byte, 8)
		m.Recv(buf, AnySource, tag)
		return int64(binary.LittleEndian.Uint64(buf))
	}
	return 0
}

// Allreduce combines every rank's contribution and returns the result
// on every rank (MPI_Allreduce over int64).
func (m *MPI) Allreduce(contrib int64, op emi.ReduceOp) int64 {
	r, _ := m.s.Reduce(m.all, contrib, op)
	out := binary.LittleEndian.AppendUint64(nil, uint64(r))
	m.Bcast(out, m.all.RootPE())
	return int64(binary.LittleEndian.Uint64(out))
}

// Gather collects every rank's fixed-size block at the root, ordered by
// rank (MPI_Gather). Returns the concatenation at root, nil elsewhere.
func (m *MPI) Gather(block []byte, root int) []byte {
	tag := m.e.NextInternalTag()
	if m.Rank() != root {
		m.e.SendTagged(root, tag, block)
		return nil
	}
	out := make([]byte, len(block)*m.Size())
	copy(out[root*len(block):], block)
	for i := 0; i < m.Size()-1; i++ {
		tmp := make([]byte, len(block))
		st := m.Recv(tmp, AnySource, tag)
		copy(out[st.Source*len(block):], tmp)
	}
	return out
}
