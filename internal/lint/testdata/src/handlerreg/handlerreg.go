// Package handlerreg is the converselint corpus for the
// handler-registration analyzer.
package handlerreg

import "converse"

func literalIndices(p *converse.Proc) {
	msg := converse.NewMsg(3, 8) // want `raw integer literal as handler index in NewMsg`
	converse.SetHandler(msg, 1)  // want `raw integer literal as handler index in SetHandler`
	_ = converse.MakeMsg(2, nil) // want `raw integer literal as handler index in MakeMsg`
	p.VectorSend(1, 7, nil)      // want `raw integer literal as handler index in VectorSend`
	_ = p.HandlerFunc(0)         // want `raw integer literal as handler index in HandlerFunc`
	_ = p.GetSpecificMsg(5)      // want `raw integer literal as handler index in GetSpecificMsg`
	_ = p.ScanfAsync(4)          // want `raw integer literal as handler index in ScanfAsync`
}

func literalArithmetic(p *converse.Proc, h int) {
	// h+1 assumes RegisterHandler returns consecutive indices in an
	// order no API guarantees.
	_ = converse.NewMsg(h+1, 8)    // want `raw integer literal as handler index in NewMsg`
	_ = converse.NewMsg(int(2), 8) // want `raw integer literal as handler index in NewMsg`
}

func registeredIndicesAreFine(cm *converse.Machine, p *converse.Proc) {
	h := cm.RegisterHandler(func(p *converse.Proc, msg []byte) {})
	msg := converse.NewMsg(h, 8)
	converse.SetHandler(msg, h)
	_ = p.HandlerFunc(h)
	_ = p.GetSpecificMsg(h)
}

func justifiedIgnoreIsHonored() {
	//lint:ignore handlerreg corpus check that a justified suppression silences the finding
	_ = converse.NewMsg(9, 8)
}

func bareIgnoreIsNotHonored() {
	//lint:ignore handlerreg
	_ = converse.NewMsg(9, 8) // want `raw integer literal as handler index in NewMsg`
}

// nonHandlerLiteralsAreFine: integer literals in other argument slots
// stay legal.
func nonHandlerLiteralsAreFine(p *converse.Proc, h int) {
	msg := converse.NewMsg(h, 64)
	p.SyncSend(0, msg)
	_ = p.Alloc(128)
}
