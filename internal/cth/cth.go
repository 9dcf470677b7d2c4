// Package cth implements Converse thread objects (§3.2.2): the ability
// to suspend and resume a thread of control, deliberately divorced from
// any scheduling policy, locks, or other thread-package baggage. A
// language runtime composes thread objects with the unified scheduler
// and a message manager to build its own threading semantics (see
// internal/lang/tsm and internal/lang/mdt).
//
// The paper's implementation encapsulates a stack and program counter
// via setjmp/longjmp. Here each thread object owns a goroutine, but with
// strictly cooperative semantics: at most one context — the processor's
// main (scheduler) context or one thread — runs per processor at any
// instant, and control moves only through explicit Resume/Suspend/Exit
// hand-offs over unbuffered tokens. This preserves exactly what the
// paper needs from threads (user-level suspend/resume with pluggable
// awaken/suspend strategies); only the stack-switch mechanism differs.
//
// Per the paper, CthAwaken and CthSuspend work as a pair around a
// "ready pool": by default Awaken pushes onto a FIFO queue and Suspend
// pops it, resuming the main context when the pool is empty. A
// per-thread strategy (SetStrategy) can redirect both — most usefully to
// the Converse scheduler's queue, making a ready thread a generalized
// message (UseSchedulerStrategy), which is how the unified scheduler
// schedules threads and message-driven objects together.
package cth

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"converse/internal/core"
	"converse/internal/queue"
)

// extKey locates a processor's thread runtime in its Proc.
const extKey = "converse.cth"

// Runtime is the per-processor thread runtime. Obtain one with Init (or
// Get) on the processor's own Proc; like everything in Converse it is
// strictly processor-local.
type Runtime struct {
	p       *core.Proc
	main    *Thread // the driver/scheduler context
	current *Thread
	ready   queue.Deque[*Thread] // default ready pool (FIFO)

	resumeHandler int // dispatches "ready thread" generalized messages
	threads       map[uint32]*Thread
	nextID        uint32
	next          *Thread      // strategy's pick, consumed by pickNext
	pending       *threadPanic // panic escaping a thread, re-raised on resume

	created, switches uint64 // statistics
}

// Thread is a thread object: a suspendable, resumable thread of control
// (CthCreate's THREAD). The zero value is not usable; create threads
// with Runtime.Create.
type Thread struct {
	rt      *Runtime
	id      uint32
	fn      func()
	token   chan struct{}
	started bool
	done    bool

	// suspendFn picks and resumes the next context when this thread
	// suspends; awakenFn stores the thread where suspendFn (of others)
	// will find it. Both default to the shared FIFO ready pool
	// (CthSetStrategy).
	suspendFn func(t *Thread)
	awakenFn  func(t *Thread)
}

// Init creates (or returns the existing) thread runtime for a processor
// (CthInit). It registers the resume handler used by the
// scheduler-strategy integration, so like all handler registration it
// should happen in the same order on every processor.
func Init(p *core.Proc) *Runtime {
	if rt, ok := p.Ext(extKey).(*Runtime); ok {
		return rt
	}
	rt := &Runtime{p: p, threads: make(map[uint32]*Thread)}
	rt.main = &Thread{rt: rt, id: 0, token: make(chan struct{}), started: true}
	rt.main.suspendFn = rt.defaultSuspend
	rt.main.awakenFn = rt.defaultAwaken
	rt.current = rt.main
	rt.resumeHandler = p.RegisterHandler(resumeFromMsg)
	p.SetExt(extKey, rt)
	return rt
}

// Get returns the processor's thread runtime, panicking if Init has not
// been called.
func Get(p *core.Proc) *Runtime {
	rt, ok := p.Ext(extKey).(*Runtime)
	if !ok {
		panic(fmt.Sprintf("cth: pe %d: thread runtime not initialized (call cth.Init)", p.MyPe()))
	}
	return rt
}

// Proc returns the runtime's processor.
func (rt *Runtime) Proc() *core.Proc { return rt.p }

// Create builds a new thread object that will execute fn when first
// resumed (CthCreate). The thread is not scheduled: resume it directly,
// or Awaken it into a ready pool. Goroutine stacks grow on demand, so
// CthCreateOfSize's stack-size parameter has no equivalent here.
func (rt *Runtime) Create(fn func()) *Thread {
	if fn == nil {
		panic("cth: Create(nil)")
	}
	rt.nextID++
	t := &Thread{rt: rt, id: rt.nextID, fn: fn, token: make(chan struct{})}
	t.suspendFn = rt.defaultSuspend
	t.awakenFn = rt.defaultAwaken
	rt.threads[t.id] = t
	rt.created++
	rt.emit(core.EvThreadCreate, t)
	if m := rt.p.Metrics(); m != nil {
		m.ThreadCreated()
	}
	return t
}

// Self returns the currently executing thread (CthSelf). In the main
// context it returns the main thread object.
func (rt *Runtime) Self() *Thread { return rt.current }

// IsMain reports whether t is the processor's main (scheduler) context.
func (t *Thread) IsMain() bool { return t == t.rt.main }

// Done reports whether the thread has exited.
func (t *Thread) Done() bool { return t.done }

// ID returns the thread's processor-local identifier.
func (t *Thread) ID() uint32 { return t.id }

// Resume immediately transfers control to t (CthResume); the caller's
// context blocks until something transfers control back. t runs until
// it, in turn, gives up control via Resume, Suspend, Yield or Exit.
func (rt *Runtime) Resume(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: resume of exited thread %d", rt.p.MyPe(), t.id))
	}
	if t == rt.current {
		return
	}
	cur := rt.current
	rt.handoff(t)
	<-cur.token // block until control returns here
	rt.checkPending()
}

// handoff performs the actual context switch to t. It must be the LAST
// shared-state-touching action of the calling goroutine before it blocks
// on its own token (or exits): once the token is sent (or the goroutine
// started), t runs concurrently with whatever instructions remain in the
// caller.
//
//converse:hotpath
func (rt *Runtime) handoff(t *Thread) {
	rt.current = t
	rt.switches++
	rt.emit(core.EvThreadResume, t)
	if m := rt.p.Metrics(); m != nil {
		m.ThreadSwitch()
	}
	if !t.started {
		t.started = true
		//lint:ignore noallocinhot a thread's goroutine starts exactly once, on its first resume; every later switch reuses it via the token channel
		go t.body()
		return
	}
	t.token <- struct{}{}
}

// exitSentinel is the panic value Exit uses to unwind a thread's stack
// (running its deferred calls) before the final hand-off.
type exitSentinel struct{}

// threadPanic carries a real panic out of a thread goroutine so it can
// be re-raised in the next context and ultimately reach the machine's
// driver goroutine, where Run reports it.
type threadPanic struct {
	value any
	stack []byte
}

// body is the goroutine entry of a thread object.
func (t *Thread) body() {
	rt := t.rt
	rt.checkPending()
	defer func() {
		if r := recover(); r != nil {
			if _, isExit := r.(exitSentinel); !isExit {
				buf := make([]byte, 16<<10)
				n := runtime.Stack(buf, false)
				rt.pending = &threadPanic{value: r, stack: buf[:n]}
			}
		}
		// Falling off the end (or Exit, or a panic) ends the thread.
		rt.exitCurrent()
	}()
	t.fn()
}

// checkPending re-raises a panic that escaped a thread goroutine, in the
// newly resumed context, so it propagates to the machine driver.
func (rt *Runtime) checkPending() {
	if p := rt.pending; p != nil {
		rt.pending = nil
		panic(fmt.Sprintf("cth: pe %d: panic in thread: %v\n%s", rt.p.MyPe(), p.value, p.stack))
	}
}

// Suspend stops the current thread and transfers control to another
// (CthSuspend). Which one is chosen by the current thread's suspend
// strategy: by default, the thread longest in the ready pool, or the
// main context if the pool is empty. Control returns when somebody
// resumes this thread again. Suspending the main context is an error —
// the scheduler is the fallback target, it cannot itself wait.
//
//converse:hotpath
func (rt *Runtime) Suspend() {
	cur := rt.current
	if cur == rt.main {
		panic(fmt.Sprintf("cth: pe %d: Suspend called from the main (scheduler) context", rt.p.MyPe()))
	}
	rt.emit(core.EvThreadSuspend, cur)
	next := rt.pickNext(cur)
	if next == cur {
		return // the strategy chose to keep running this thread
	}
	rt.p.NoteThreadsSuspended(1)
	rt.handoff(next)
	<-cur.token
	rt.p.NoteThreadsSuspended(-1)
	rt.checkPending()
}

// pickNext runs cur's suspend strategy and returns the chosen context.
func (rt *Runtime) pickNext(cur *Thread) *Thread {
	rt.next = nil
	cur.suspendFn(cur)
	next := rt.next
	rt.next = nil
	if next == nil {
		next = rt.main
	}
	return next
}

// Awaken adds t to its ready pool — by default the runtime's FIFO pool —
// constituting permission for Suspend to transfer control to it
// (CthAwaken). It must only be called when it is acceptable for t to
// continue execution.
func (rt *Runtime) Awaken(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: awaken of exited thread %d", rt.p.MyPe(), t.id))
	}
	t.awakenFn(t)
}

// Yield awakens the current thread and immediately suspends it
// (CthYield): control may pass to other ready threads and will normally
// come back.
//
//converse:hotpath
func (rt *Runtime) Yield() {
	rt.Awaken(rt.current)
	rt.Suspend()
}

// Exit terminates the current thread (CthExit): the thread ceases to
// exist — its deferred calls run — and control transfers as if by
// Suspend, honoring the thread's suspend strategy. Exit does not
// return. Calling Exit from the main context panics.
func (rt *Runtime) Exit() {
	if rt.current == rt.main {
		panic(fmt.Sprintf("cth: pe %d: Exit called from the main context", rt.p.MyPe()))
	}
	// Unwind via a sentinel panic so the thread's deferred calls run
	// before the final hand-off in body's recover block.
	panic(exitSentinel{})
}

// exitCurrent marks the current thread dead and hands control onward
// without expecting it back.
func (rt *Runtime) exitCurrent() {
	cur := rt.current
	cur.done = true
	delete(rt.threads, cur.id)
	rt.emit(core.EvThreadSuspend, cur)
	next := rt.pickNext(cur)
	if next == cur {
		panic(fmt.Sprintf("cth: pe %d: suspend strategy picked the exiting thread %d", rt.p.MyPe(), cur.id))
	}
	rt.handoff(next) // transfers control; nobody will resume cur
}

// SetStrategy overrides how Awaken stores t and how Suspend (called by
// t) finds the next thread (CthSetStrategy). awaken must store t
// somewhere Suspend-strategies can find it; suspend must locate a ready
// thread and resume it via ResumeFromStrategy, or fall back to
// ResumeMain. Only the selection order may be altered, not the
// semantics. Either function may be nil to keep the default.
func (t *Thread) SetStrategy(suspend func(*Thread), awaken func(*Thread)) {
	if suspend != nil {
		t.suspendFn = suspend
	}
	if awaken != nil {
		t.awakenFn = awaken
	}
}

// ResumeFromStrategy selects t as the next context to run. It may only
// be called from inside a suspend strategy; the runtime performs the
// actual switch after the strategy returns (so that the hand-off is the
// suspending goroutine's final shared-state action).
func (rt *Runtime) ResumeFromStrategy(t *Thread) {
	if t.done {
		panic(fmt.Sprintf("cth: pe %d: strategy resumed exited thread %d", rt.p.MyPe(), t.id))
	}
	rt.next = t
}

// ResumeMain selects the main (scheduler) context as the next to run,
// from inside a suspend strategy.
func (rt *Runtime) ResumeMain() { rt.next = rt.main }

// defaultSuspend pops the FIFO ready pool, falling back to main.
func (rt *Runtime) defaultSuspend(*Thread) {
	for {
		next, ok := rt.ready.PopFront()
		if !ok {
			rt.ResumeMain()
			return
		}
		if next.done {
			continue // awakened then exited through another path
		}
		rt.ResumeFromStrategy(next)
		return
	}
}

// defaultAwaken pushes onto the FIFO ready pool.
func (rt *Runtime) defaultAwaken(t *Thread) { rt.ready.PushBack(t) }

// ReadyLen reports the number of threads in the default ready pool.
func (rt *Runtime) ReadyLen() int { return rt.ready.Len() }

// Stats reports the number of threads created and context switches
// performed on this processor.
func (rt *Runtime) Stats() (created, switches uint64) { return rt.created, rt.switches }

// emit sends a thread trace event if tracing is on.
func (rt *Runtime) emit(kind core.EventKind, t *Thread) {
	if tr := rt.p.Tracer(); tr != nil {
		tr.Event(core.TraceEvent{
			Kind: kind, T: rt.p.TimerUs(), PE: rt.p.MyPe(), Aux: int(t.id),
		})
	}
}

// --- scheduler integration: a ready thread is a generalized message ---

// UseSchedulerStrategy makes t schedule through the Converse scheduler:
// Awaken enqueues a generalized message (a "scheduler entry for a ready
// thread", §3.1.1) with the given integer priority, and the scheduler
// resumes the thread when the message is dispatched; Suspend falls back
// to the default pool-then-main behaviour, so control returns to the
// scheduler when nothing else is ready. This is the unification that
// lets threads and message-driven objects interleave under one
// scheduler.
func (t *Thread) UseSchedulerStrategy(prio int32) {
	rt := t.rt
	t.SetStrategy(nil, func(t *Thread) {
		msg := core.NewMsg(rt.resumeHandler, 4)
		binary.LittleEndian.PutUint32(core.Payload(msg), t.id)
		if prio == 0 {
			rt.p.Enqueue(msg)
		} else {
			rt.p.EnqueuePrio(msg, prio)
		}
	})
}

// resumeFromMsg is the handler behind UseSchedulerStrategy.
func resumeFromMsg(p *core.Proc, msg []byte) {
	rt := Get(p)
	id := binary.LittleEndian.Uint32(core.Payload(msg))
	t, ok := rt.threads[id]
	if !ok || t.done {
		return // thread exited before its wake-up message was scheduled
	}
	rt.Resume(t)
}
