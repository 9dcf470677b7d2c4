// Package blockinhandler is the converselint corpus for the
// blocking-in-handler analyzer.
package blockinhandler

import (
	"converse"
	"converse/internal/csync"
	"converse/internal/cth"
)

func blockingHandlers(cm *converse.Machine, hEcho int) {
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		p.Scheduler(-1) // want `Scheduler with a negative count \(blocking re-entry\) inside a message handler`
	})
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		_ = p.GetSpecificMsg(hEcho) // want `blocking receive GetSpecificMsg inside a message handler`
	})
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		p.ServeUntil(func() bool { return false }) // want `blocking wait ServeUntil inside a message handler`
	})
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		var n int
		_, _ = p.Scanf("%d", &n) // want `blocking console read Scanf inside a message handler`
	})
}

func csyncInHandler(cm *converse.Machine, lk *csync.Lock, cond *csync.Cond, bar *csync.Barrier) {
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		lk.Lock() // want `csync Lock.Lock \(thread suspension\) inside a message handler`
	})
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		cond.Wait() // want `csync Cond.Wait \(thread suspension\) inside a message handler`
	})
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		bar.Arrive() // want `csync Barrier.Arrive \(thread suspension\) inside a message handler`
	})
}

// onNamed is registered by name below; its body is checked too.
func onNamed(p *converse.Proc, msg []byte) {
	_ = p.GetSpecificMsg(0) // want `blocking receive GetSpecificMsg inside a message handler`
}

func registersNamed(cm *converse.Machine) {
	cm.RegisterHandler(onNamed)
}

func immediatelyInvokedLiteralIsHandlerCode(cm *converse.Machine, hEcho int) {
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		func() {
			_ = p.GetSpecificMsg(hEcho) // want `blocking receive GetSpecificMsg inside a message handler`
		}()
	})
}

// Blocking on a cth thread spawned from a handler is the sanctioned
// pattern: the thread suspends, the scheduler keeps running.
func threadBodyMayBlock(cm *converse.Machine, lk *csync.Lock, hEcho int) {
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		rt := cth.Get(p)
		t := rt.Create(func() {
			lk.Lock()
			_ = p.GetSpecificMsg(hEcho)
			lk.Unlock()
		})
		rt.Resume(t)
	})
}

// Bounded scheduler grants and driver code outside handlers stay
// legal.
func nonHandlerBlockingIsFine(cm *converse.Machine, hEcho int) {
	cm.Run(func(p *converse.Proc) {
		_ = p.GetSpecificMsg(hEcho)
		p.Scheduler(-1)
	})
}

func boundedReentryIsFine(cm *converse.Machine) {
	cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		p.Scheduler(4)
		p.ScheduleUntilIdle()
	})
}
