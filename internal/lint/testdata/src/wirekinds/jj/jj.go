// Package jj mirrors the service package's layout — two kind planes
// (control messages and journal records) in one Go package — and pins
// the acceptance property: renumbering a journal kind into the control
// range is a lint failure, not a silent wire corruption.
package jj

import (
	"io"

	"converse/internal/wire"
)

const (
	KSubmit byte = 96 + iota
	KAccept      // want `frame kind KAccept = 97 collides with JKBad in the same package`
)

const (
	JKEpoch byte = 120
	JKBad   byte = 97
)

func sendBoth(w io.Writer) {
	wire.WriteFrame(w, KSubmit, nil)
	wire.WriteFrame(w, JKEpoch, nil)
}
