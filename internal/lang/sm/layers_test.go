package sm_test

import (
	"testing"
	"time"

	"converse/internal/core"
	"converse/internal/lang/mpi"
	"converse/internal/lang/nx"
	"converse/internal/lang/pvmc"
	"converse/internal/lang/sm"
	"converse/internal/lang/tsm"
)

// layer adapts one tagged-messaging layer to the cross-layer tests: a
// user send, a receive with every wildcard set, and a collective whose
// traffic travels under the layer's internal tags.
type layer struct {
	send       func(dst, tag int, data []byte)
	recvAny    func() (data []byte, src, tag int)
	collective func()
}

var layers = []struct {
	name   string
	attach func(p *core.Proc) layer
}{
	{"sm", func(p *core.Proc) layer {
		s := sm.Attach(p)
		return layer{s.Send, func() ([]byte, int, int) { return s.Recv(sm.Wildcard) }, s.Barrier}
	}},
	{"pvmc", func(p *core.Proc) layer {
		v := pvmc.Attach(p)
		send := func(dst, tag int, data []byte) { v.InitSend().PackString(string(data)); v.Send(dst, tag) }
		return layer{send, func() ([]byte, int, int) {
			src, tag := v.Recv(pvmc.Any, pvmc.Any)
			if v.RecvBuf().Len() == 0 {
				return nil, src, tag
			}
			return []byte(v.RecvBuf().UnpackString()), src, tag
		}, v.Barrier}
	}},
	{"nx", func(p *core.Proc) layer {
		x := nx.Attach(p)
		send := func(dst, tag int, data []byte) { x.Csend(tag, data, dst) }
		return layer{send, func() ([]byte, int, int) {
			buf := make([]byte, 64)
			n := x.Crecv(nx.AnyType, buf)
			return buf[:n], x.Infonode(), x.Infotype()
		}, x.Gsync}
	}},
	{"mpi", func(p *core.Proc) layer {
		m := mpi.Attach(p)
		send := func(dst, tag int, data []byte) { m.Send(data, dst, tag) }
		return layer{send, func() ([]byte, int, int) {
			buf := make([]byte, 64)
			st := m.Recv(buf, mpi.AnySource, mpi.AnyTag)
			return buf[:min(st.Count, len(buf))], st.Source, st.Tag
		}, func() { m.Bcast(make([]byte, 1), 2) }} // rooted at PE 2: it sends without waiting
	}},
}

// tracerFunc adapts a function to core.Tracer.
type tracerFunc func(core.TraceEvent)

func (f tracerFunc) Event(e core.TraceEvent) { f(e) }

// TestWildcardRecvSkipsInternalTraffic: on three PEs, PE 2's collective
// traffic reaches PE 0 before PE 1's user message. PE 0's receive with
// every wildcard set must still return the user message, and the
// collective must then complete everywhere. PE 0 waits for PE 2's
// traffic at the CMI: no layer-level probe may see it.
func TestWildcardRecvSkipsInternalTraffic(t *testing.T) {
	const userTag = 5
	for _, l := range layers {
		t.Run(l.name, func(t *testing.T) {
			cm := core.NewMachine(core.Config{PEs: 3, Watchdog: 5 * time.Second})
			internalIn := make(chan struct{})
			err := cm.Run(func(p *core.Proc) {
				x := l.attach(p)
				switch p.MyPe() {
				case 0:
					seen := false
					p.SetTracer(tracerFunc(func(e core.TraceEvent) { seen = seen || e.Kind == core.EvRecv && e.Src == 2 }))
					p.ServeUntil(func() bool { return seen })
					p.SetTracer(nil)
					close(internalIn)
					if data, src, tag := x.recvAny(); string(data) != "user" || src != 1 || tag != userTag {
						t.Errorf("wildcard recv = %q from %d tag %d; want \"user\" from 1 tag %d", data, src, tag, userTag)
					}
				case 1:
					<-internalIn
					x.send(0, userTag, []byte("user"))
				}
				x.collective()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLayersCoexist: SM, PVM, NX, MPI and tSM attached on the same PEs
// each get only their own traffic, though all use the same user tag,
// receive with every wildcard set, and run their barriers under the
// same internal tags.
func TestLayersCoexist(t *testing.T) {
	const tag = 5
	cm := core.NewMachine(core.Config{PEs: 2, Watchdog: 15 * time.Second})
	err := cm.Run(func(p *core.Proc) {
		ls := make([]layer, len(layers))
		for i, l := range layers {
			ls[i] = l.attach(p)
		}
		s, v, x, m, ts := sm.Attach(p), pvmc.Attach(p), nx.Attach(p), mpi.Attach(p), tsm.Attach(p)
		if s != sm.Attach(p) || v != pvmc.Attach(p) || x != nx.Attach(p) || m != mpi.Attach(p) || ts != tsm.Attach(p) {
			t.Errorf("pe %d: Attach not idempotent with every layer attached", p.MyPe())
		}
		s.Barrier()
		v.Barrier()
		x.Gsync()
		m.Barrier()
		if p.MyPe() == 0 {
			ts.Send(1, tag, []byte("tsm"))
			for i, l := range ls {
				l.send(1, tag, []byte(layers[i].name))
			}
			return
		}
		// Reverse of send order: each receive buffers the others' traffic.
		for i := len(ls) - 1; i >= 0; i-- {
			if data, src, rtag := ls[i].recvAny(); string(data) != layers[i].name || src != 0 || rtag != tag {
				t.Errorf("%s recv = %q from %d tag %d; want its own message", layers[i].name, data, src, rtag)
			}
		}
		ts.Create(func() {
			if data, src, rtag := ts.Recv(tsm.Wildcard); string(data) != "tsm" || src != 0 || rtag != tag {
				t.Errorf("tsm recv = %q from %d tag %d; want its own message", data, src, rtag)
			}
		})
		ts.Run()
		_, _, smLeft := s.Probe(sm.Wildcard)
		_, mpiLeft := m.Iprobe(mpi.AnySource, mpi.AnyTag)
		if smLeft || v.Probe(pvmc.Any, pvmc.Any) || x.Iprobe(nx.AnyType) || mpiLeft {
			t.Error("stray message left after every layer received its own")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
