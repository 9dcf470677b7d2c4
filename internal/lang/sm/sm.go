// Package sm implements SM, the paper's "simple messaging layer": a
// single-process-module (SPM) messaging system in the no-concurrency
// category of §2.1. A module blocks in Recv for a specific message;
// while it blocks, no other user-space activity takes place on the
// processor — messages for other handlers are buffered by the CMI
// (CmiGetSpecificMsg) and messages for SM with the wrong tag are parked
// in a message manager.
//
// SM is also the one tagged-messaging engine under the other SPM layers
// (pvmc, nx, dp) and mpi: each holds a private engine made with New, so
// it owns its own handler and mailbox, and only this package runs the
// receive loop, the drain, the parking and the token barrier. tsm shares
// the [tag u32][src u32] header (Encode, Decode). Tags at or above
// Internal carry a layer's own barrier and collective traffic; they are
// parked in a second mailbox that Wildcard queries never search.
package sm

import (
	"encoding/binary"
	"fmt"

	"converse/internal/core"
	"converse/internal/msgmgr"
)

// Wildcard matches any tag or source in Recv/Probe.
const Wildcard = msgmgr.Wildcard

// Internal is the first reserved tag. Every layer's user tags stay
// below it; NextInternalTag hands out tags above it.
const Internal = 1 << 30

// header is the size of the [tag u32][src u32] prefix of every payload.
const header = 8

// SM is the per-processor state of the simple messaging layer. Attach
// one on every processor at the same point of startup.
type SM struct {
	p              *core.Proc
	h              int
	user, internal *msgmgr.M // parked messages, split at Internal
	round          int       // reserved tags handed out so far
}

// extKey locates the SM state in a Proc.
const extKey = "converse.lang.sm"

// Attach creates (or returns) the processor's SM layer.
func Attach(p *core.Proc) *SM {
	if s, ok := p.Ext(extKey).(*SM); ok {
		return s
	}
	s := New(p)
	p.SetExt(extKey, s)
	return s
}

// New creates an engine instance apart from the processor's SM layer,
// with its own handler and mailboxes. Like Attach, call it at the same
// point of startup on every processor.
func New(p *core.Proc) *SM {
	s := &SM{p: p, user: msgmgr.New(), internal: msgmgr.New()}
	s.h = p.RegisterHandler(func(p *core.Proc, msg []byte) {
		// Tagged messages are consumed by receives, never dispatched;
		// reaching here means the program mixed Scheduler dispatch with
		// pending traffic — park the message for a later receive.
		s.park(p.GrabBuffer())
	})
	return s
}

// Proc returns the layer's processor.
func (s *SM) Proc() *core.Proc { return s.p }

// Send transmits data to processor dst under the given tag. The data is
// copied; the caller may reuse it immediately.
func (s *SM) Send(dst, tag int, data []byte) {
	if tag < 0 || tag >= Internal {
		panic(fmt.Sprintf("sm: pe %d: tag %d outside the user range [0, 1<<30)", s.p.MyPe(), tag))
	}
	s.SendTagged(dst, tag, data)
}

// SendTagged is Send without the user-range check, for layers with
// their own bound and for reserved tags.
func (s *SM) SendTagged(dst, tag int, data []byte) {
	s.p.SyncSendAndFree(dst, Encode(s.h, tag, s.p.MyPe(), data))
}

// AsyncSendTagged is SendTagged through CmiAsyncSend.
func (s *SM) AsyncSendTagged(dst, tag int, data []byte) *core.CommHandle {
	return s.p.AsyncSend(dst, Encode(s.h, tag, s.p.MyPe(), data))
}

// Encode builds a message for handler h carrying data behind the
// [tag u32][src u32] header.
func Encode(h, tag, src int, data []byte) []byte {
	msg := core.NewMsg(h, header+len(data))
	pl := core.Payload(msg)
	binary.LittleEndian.PutUint32(pl[0:], uint32(tag))
	binary.LittleEndian.PutUint32(pl[4:], uint32(src))
	copy(pl[header:], data)
	return msg
}

// Decode splits a message built by Encode into its data, tag and source.
func Decode(msg []byte) (data []byte, tag, src int) {
	pl := core.Payload(msg)
	return pl[header:], int(binary.LittleEndian.Uint32(pl[0:])), int(binary.LittleEndian.Uint32(pl[4:]))
}

// Broadcast sends data under tag to every other processor.
func (s *SM) Broadcast(tag int, data []byte) {
	for dst := 0; dst < s.p.NumPes(); dst++ {
		if dst != s.p.MyPe() {
			s.Send(dst, tag, data)
		}
	}
}

// Recv blocks until a message matching tag (or Wildcard) is available
// and returns its data, source and actual tag. Messages with other tags
// that arrive meanwhile are buffered in arrival order.
func (s *SM) Recv(tag int) (data []byte, src, rettag int) {
	return s.RecvTagged(tag, Wildcard)
}

// RecvFrom is Recv restricted to a particular source processor (the
// NX/PVM-style addressing); both tag and src may be Wildcard.
func (s *SM) RecvFrom(src, tag int) (data []byte, rettag int) {
	d, _, rt := s.RecvTagged(tag, src)
	return d, rt
}

// RecvTagged blocks until a message matching (tag, src) — either may be
// Wildcard, which never matches a reserved tag — is available and
// returns the oldest match's data, source and tag.
func (s *SM) RecvTagged(tag, src int) (data []byte, msgSrc, rettag int) {
	for {
		if data, msgSrc, rettag, ok := s.TryRecv(tag, src); ok {
			return data, msgSrc, rettag
		}
		s.await()
	}
}

// TryRecv is RecvTagged over parked messages only; Drain first to
// include ones that have already arrived.
func (s *SM) TryRecv(tag, src int) (data []byte, msgSrc, rettag int, ok bool) {
	data, rettag, msgSrc, ok = s.mailbox(tag).Get2(tag, src)
	return data, msgSrc, rettag, ok
}

// Peek is TryRecv that reports the match's data size and leaves it.
func (s *SM) Peek(tag, src int) (size, msgSrc, rettag int, ok bool) {
	size, rettag, msgSrc, ok = s.mailbox(tag).Probe2(tag, src)
	return size, msgSrc, rettag, ok
}

// WaitPeek is Peek that blocks until a match is parked.
func (s *SM) WaitPeek(tag, src int) (size, msgSrc, rettag int) {
	for {
		if size, msgSrc, rettag, ok := s.Peek(tag, src); ok {
			return size, msgSrc, rettag
		}
		s.await()
	}
}

// await blocks for the next message to this engine's handler and parks
// it; messages for other handlers stay buffered in the CMI.
func (s *SM) await() {
	s.p.GetSpecificMsg(s.h)
	s.park(s.p.GrabBuffer())
}

// park stores an already-grabbed message for a later receive.
func (s *SM) park(buf []byte) {
	data, tag, src := Decode(buf)
	s.mailbox(tag).Put2(data, tag, src)
}

// mailbox returns where messages under tag (or Wildcard) are parked.
func (s *SM) mailbox(tag int) *msgmgr.M {
	if tag >= Internal {
		return s.internal
	}
	return s.user
}

// Probe reports whether a message matching tag is buffered or can be
// drained from the network without blocking, returning its size and tag.
func (s *SM) Probe(tag int) (size, rettag int, ok bool) {
	s.Drain()
	size, _, rettag, ok = s.Peek(tag, Wildcard)
	return size, rettag, ok
}

// Drain parks every message for this engine that has already arrived,
// without blocking. Other handlers' messages go to the scheduler's
// queue: SPM purists would buffer them, but a non-blocking probe is
// already an "impatient" call, and dispatching keeps the system live.
func (s *SM) Drain() {
	for msg, ok := s.p.GetMsg(); ok; msg, ok = s.p.GetMsg() {
		s.p.GrabBuffer()
		if core.HandlerOf(msg) == s.h {
			s.park(msg)
		} else {
			s.p.Enqueue(msg)
		}
	}
}

// NextInternalTag returns a fresh reserved tag for one collective round.
// Every processor draws them in the same order, so a fast processor's
// round-k+1 traffic can never satisfy a slow processor's round-k wait.
func (s *SM) NextInternalTag() int {
	s.round++
	return Internal + s.round
}

// Barrier synchronizes all processors: each sends a round-stamped token
// to every other and waits for all of theirs. It uses only SM's own
// machinery, preserving SPM semantics (non-SM traffic stays buffered).
func (s *SM) Barrier() { s.Sync() }

// Sync is Barrier reporting the round's reserved tag and the source of
// the last token it consumed, or -1 on a single processor (NX's gsync
// leaves both in its last-message enquiries).
func (s *SM) Sync() (tag, lastSrc int) {
	tag, lastSrc = s.NextInternalTag(), -1
	for dst := 0; dst < s.p.NumPes(); dst++ {
		if dst != s.p.MyPe() {
			s.SendTagged(dst, tag, nil)
		}
	}
	for n := 0; n < s.p.NumPes()-1; n++ {
		_, lastSrc, _ = s.RecvTagged(tag, Wildcard)
	}
	return tag, lastSrc
}
