// Package msgownership is the converselint corpus for the
// use-after-transfer analyzer. Every flagged line carries a `// want`
// expectation; the rest must stay silent.
package msgownership

import "converse"

func useAfterSendAndFree(p *converse.Proc, h int) {
	msg := p.Alloc(8)
	converse.SetHandler(msg, h)
	p.SyncSendAndFree(1, msg)
	_ = msg[0] // want `message buffer "msg" used after ownership transfer \(SyncSendAndFree`
}

func useAfterTransferOpt(p *converse.Proc, h int) {
	msg := p.Alloc(8)
	converse.SetHandler(msg, h)
	p.Send(1, msg, converse.Transfer)
	converse.SetHandler(msg, h) // want `used after ownership transfer \(Send\(\.\.\., Transfer\)`
}

func writeAfterBroadcastFree(p *converse.Proc, h int) {
	msg := converse.NewMsg(h, 16)
	p.SyncBroadcastAllAndFree(msg)
	msg[8] = 1 // want `used after ownership transfer \(SyncBroadcastAllAndFree`
}

func resendAfterTransfer(p *converse.Proc, h int) {
	msg := converse.NewMsg(h, 4)
	p.SyncSendAndFree(1, msg)
	p.SyncSend(2, msg) // want `used after ownership transfer`
}

func aliasThroughAssignment(p *converse.Proc, h int) {
	msg := p.Alloc(8)
	converse.SetHandler(msg, h)
	alias := msg
	p.SyncSendAndFree(1, msg)
	_ = alias[0] // want `message buffer "alias" used after ownership transfer`
}

func aliasThroughPayload(p *converse.Proc, h int) {
	msg := p.Alloc(8)
	converse.SetHandler(msg, h)
	body := converse.Payload(msg)
	p.Send(1, msg, converse.Transfer)
	body[0] = 42 // want `message buffer "body" used after ownership transfer`
}

func aliasThroughSlice(p *converse.Proc, h int) {
	msg := p.Alloc(32)
	converse.SetHandler(msg, h)
	tail := msg[8:]
	p.SyncSendAndFree(1, msg)
	tail[0] = 7 // want `message buffer "tail" used after ownership transfer`
}

func transferOfSliceExpr(p *converse.Proc, h int) {
	msg := p.Alloc(8)
	converse.SetHandler(msg, h)
	p.SyncSendAndFree(1, msg[:])
	_ = msg[0] // want `used after ownership transfer`
}

func doubleFree(p *converse.Proc, h int) {
	msg := converse.NewMsg(h, 0)
	p.SyncSendAndFree(1, msg)
	p.SyncSendAndFree(1, msg) // want `used after ownership transfer`
}

func transferInBranchPoisonsAfter(p *converse.Proc, h int, big bool) {
	msg := converse.NewMsg(h, 8)
	if big {
		p.SyncSendAndFree(1, msg)
	}
	_ = msg[0] // want `used after ownership transfer`
}

func loopCarriedUse(p *converse.Proc, h int) {
	msg := converse.NewMsg(h, 8)
	for i := 0; i < 4; i++ {
		converse.SetHandler(msg, h) // want `used after ownership transfer`
		p.SyncSendAndFree(1, msg)   // want `used after ownership transfer`
	}
}

func returnAfterTransfer(p *converse.Proc, h int) []byte {
	msg := converse.NewMsg(h, 8)
	p.SyncSendAndFree(1, msg)
	return msg // want `used after ownership transfer`
}

func insideHandlerLiteral(cm *converse.Machine) {
	var h int
	h = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		reply := p.Alloc(8)
		converse.SetHandler(reply, h)
		p.Send(0, reply, converse.Transfer)
		_ = reply[0] // want `message buffer "reply" used after ownership transfer`
	})
	_ = h
}
