// Package nx implements an NX-flavoured messaging layer over the
// Converse machine interface, standing in for the NXLib prototype the
// paper lists among its initial implementations. NX was the native
// message-passing interface of the Intel iPSC/Paragon family; its
// signature calls are csend/crecv (synchronous, typed) and isend/irecv
// (asynchronous, completed via msgwait), plus infotype/infocount/
// infonode enquiries about the last received message.
//
// Like SM and PVM, NX is a single-process-module layer (§2.1): a
// blocked crecv buffers all other traffic. Message selection is by
// "type" (the NX tag), with -1 matching any type. The messaging itself
// is a private instance of the sm engine, queried with a wildcard
// source; this package adds irecv and the info enquiries.
package nx

import (
	"fmt"

	"converse/internal/core"
	"converse/internal/lang/sm"
	"converse/internal/msgmgr"
)

// AnyType matches any message type in crecv/irecv/iprobe.
const AnyType = msgmgr.Wildcard

// NX is the per-processor NX-flavoured runtime.
type NX struct {
	p *core.Proc
	e *sm.SM // private tagged-messaging engine: NX's handler and mailbox

	// last-received message info (infotype/infocount/infonode)
	lastType, lastCount, lastNode int

	pending []*Recv
}

// Recv is a posted asynchronous receive (irecv), completed by Wait.
type Recv struct {
	typ  int
	buf  []byte
	n    int
	node int
	rtyp int
	done bool
}

// Done reports whether the receive has completed.
func (r *Recv) Done() bool { return r.done }

// Count returns the received byte count (valid once done).
func (r *Recv) Count() int { return r.n }

// Node returns the sender's processor (valid once done).
func (r *Recv) Node() int { return r.node }

// Type returns the received message type (valid once done).
func (r *Recv) Type() int { return r.rtyp }

// extKey locates the NX state in a Proc.
const extKey = "converse.lang.nx"

// Attach creates (or returns) the processor's NX layer.
func Attach(p *core.Proc) *NX {
	if x, ok := p.Ext(extKey).(*NX); ok {
		return x
	}
	x := &NX{p: p, e: sm.New(p), lastType: -1, lastNode: -1}
	p.SetExt(extKey, x)
	return x
}

// Mynode returns the calling processor id (mynode()).
func (x *NX) Mynode() int { return x.p.MyPe() }

// Numnodes returns the machine size (numnodes()).
func (x *NX) Numnodes() int { return x.p.NumPes() }

// Csend synchronously sends data of the given type to node (csend).
// The buffer may be reused when it returns.
func (x *NX) Csend(typ int, data []byte, node int) {
	x.checkType(typ)
	x.e.SendTagged(node, typ, data)
}

// checkType validates a user message type.
func (x *NX) checkType(typ int) {
	if typ < 0 || typ >= sm.Internal {
		panic(fmt.Sprintf("nx: pe %d: message type %d outside the user range [0, 1<<30)", x.p.MyPe(), typ))
	}
}

// Isend initiates an asynchronous send and returns its handle; poll or
// wait on it with the core's progress rules (isend/msgwait). The data
// is captured at call time.
func (x *NX) Isend(typ int, data []byte, node int) *core.CommHandle {
	x.checkType(typ)
	return x.e.AsyncSendTagged(node, typ, data)
}

// Msgwait blocks until an asynchronous send completes (msgwait).
func (x *NX) Msgwait(h *core.CommHandle) {
	for !x.p.IsSent(h) {
	}
}

// Crecv blocks until a message of the given type (or AnyType) arrives
// and copies it into buf, returning the byte count (crecv). Messages of
// other types are buffered; messages for other handlers stay deferred
// in the CMI.
func (x *NX) Crecv(typ int, buf []byte) int {
	data, src, rtyp := x.e.RecvTagged(typ, sm.Wildcard)
	n := copy(buf, data)
	x.lastType, x.lastCount, x.lastNode = rtyp, len(data), src
	return n
}

// Irecv posts an asynchronous receive for the given type into buf
// (irecv); complete it with MsgwaitRecv or poll Done via Probe-driven
// progress.
func (x *NX) Irecv(typ int, buf []byte) *Recv {
	r := &Recv{typ: typ, buf: buf}
	// Try to satisfy immediately from buffered traffic.
	x.drain()
	x.trySatisfy(r)
	if !r.done {
		x.pending = append(x.pending, r)
	}
	return r
}

// MsgwaitRecv blocks until the posted receive completes.
func (x *NX) MsgwaitRecv(r *Recv) {
	for !r.done {
		x.e.WaitPeek(r.typ, sm.Wildcard)
		x.satisfyPending()
	}
	x.lastType, x.lastCount, x.lastNode = r.rtyp, r.n, r.node
}

// trySatisfy completes r from the engine's mailbox if a match is parked.
func (x *NX) trySatisfy(r *Recv) {
	data, src, rtyp, ok := x.e.TryRecv(r.typ, sm.Wildcard)
	if !ok {
		return
	}
	r.n = copy(r.buf, data)
	r.node, r.rtyp, r.done = src, rtyp, true
}

// satisfyPending completes as many posted receives as possible.
func (x *NX) satisfyPending() {
	kept := x.pending[:0]
	for _, r := range x.pending {
		x.trySatisfy(r)
		if !r.done {
			kept = append(kept, r)
		}
	}
	x.pending = kept
}

// Iprobe reports whether a message of the given type is available
// without blocking (iprobe).
func (x *NX) Iprobe(typ int) bool {
	x.drain()
	_, _, _, ok := x.e.Peek(typ, sm.Wildcard)
	return ok
}

// drain parks all currently available NX messages and feeds posted
// receives; non-NX traffic is enqueued for its handlers.
func (x *NX) drain() {
	x.e.Drain()
	x.satisfyPending()
}

// Infotype returns the type of the last completed receive (infotype).
func (x *NX) Infotype() int { return x.lastType }

// Infocount returns the byte count of the last completed receive
// (infocount).
func (x *NX) Infocount() int { return x.lastCount }

// Infonode returns the sending node of the last completed receive
// (infonode).
func (x *NX) Infonode() int { return x.lastNode }

// Gsync is the NX global synchronization (gsync): a counted all-to-all
// barrier over a reserved type range, round-stamped like sm.Barrier.
// Like a crecv of the last token, it leaves that token's reserved type,
// zero count and node in the info enquiries.
func (x *NX) Gsync() {
	if typ, node := x.e.Sync(); node >= 0 {
		x.lastType, x.lastCount, x.lastNode = typ, 0, node
	}
}
