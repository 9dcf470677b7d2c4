package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/mnet"
)

// The sim-msg and tcp-msg workloads run the same three programs — a
// 64 B ping-pong between PEs 0 and 1, a fan-in from every other PE to
// PE 0 (coalescing off, then on), and a 64 KiB ping-pong — on the
// simulated substrate or on a loopback TCP mesh whose ranks all live in
// this process. Each program gets a fresh machine.

// substrate builds a fresh machine of the workload's size and runs one
// program on it: setup registers the program's handlers on the machine
// and returns its per-PE driver.
type substrate interface {
	run(cfg core.Config, setup func(cm *core.Machine) func(p *core.Proc)) error
	close()
}

type simSub struct{ np int }

func (s *simSub) run(cfg core.Config, setup func(cm *core.Machine) func(p *core.Proc)) error {
	cfg.PEs, cfg.Transport = s.np, core.TransportSim
	cm := core.NewMachine(cfg)
	return cm.Run(setup(cm))
}

func (s *simSub) close() {}

const meshToken = "perfbench-mesh"

// tcpSub is a launcher control server plus, per program, one mnet node
// per rank joined through it — the seam converserun jobs use, without
// spawning processes. Every rank shares this process's clock.
type tcpSub struct {
	np     int
	ls     net.Listener
	cs     *mnet.ControlServer
	served chan struct{}
	round  int
	tr     *Tracer

	mu   sync.Mutex
	fail error // first failure the control server reported
}

func newTCPSub(np int, tr *Tracer) (*tcpSub, error) {
	ls, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("binding the control port: %w", err)
	}
	s := &tcpSub{np: np, ls: ls, tr: tr, served: make(chan struct{})}
	s.cs = mnet.NewControlServer(np, 0, meshToken, time.Second, mnet.ControlCallbacks{
		Fail: func(err error) {
			s.mu.Lock()
			if s.fail == nil {
				s.fail = err
			}
			s.mu.Unlock()
		},
	})
	go func() {
		s.cs.Serve(ls)
		close(s.served)
	}()
	return s, nil
}

func (s *tcpSub) run(cfg core.Config, setup func(cm *core.Machine) func(p *core.Proc)) error {
	s.round++
	round := s.round
	cfg.PEs = s.np
	errs := make([]error, s.np)
	var wg sync.WaitGroup
	for rank := 0; rank < s.np; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			t0 := now()
			n, err := mnet.Join(mnet.Config{
				Launcher: s.ls.Addr().String(), Token: meshToken,
				Rank: rank, NP: s.np, PEs: s.np, Round: round,
				Handshake: 10 * time.Second,
			})
			s.tr.Record("mnet.join", 0, 0, t0, now())
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d joining the mesh: %w", rank, err)
				return
			}
			defer n.Close()
			if cfg.Metrics != nil {
				n.SetMetrics(cfg.Metrics.PE(n.ID()))
			}
			cm := core.NewMachineOn(n, cfg)
			errs[rank] = cm.Run(setup(cm))
		}(rank)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return errors.Join(append(errs, s.fail)...)
}

func (s *tcpSub) close() {
	s.cs.Shutdown()
	s.ls.Close()
	<-s.served
	s.cs.Drain(5 * time.Second)
}

// emptyProgram is the setup probe: bring-up and teardown only.
func emptyProgram(cm *core.Machine) func(p *core.Proc) { return func(p *core.Proc) {} }

// ppResult accumulates the runs of a ping-pong program.
type ppResult struct {
	oneWay      []float64 // µs, rounds after warm-up
	rounds, bad int       // every round is checked
}

// ppEvery is the traced ping-pong's sampling factor: one round in
// ppEvery records its spans.
const ppEvery = 16

// pingPong bounces payload between PEs 0 and 1 for d: PE 0 builds and
// sends a ping, PE 1's handler echoes it, PE 0's pong handler checks
// the echo byte for byte. A round runs from the start of building the
// ping to the entry of the pong handler; one-way time is half of it. The
// first tenth of d is warm-up and is not recorded. With a tracer,
// sampled rounds record the split: building a message (handler), the
// send call, and delivery from send-return to handler entry. Results
// accumulate into res.
func pingPong(sub substrate, cfg core.Config, payload []byte, d time.Duration, tr *Tracer, res *ppResult) error {
	size := len(payload)
	var (
		pongs  int          // PE 0
		tEnd   int64        // PE 0: pong handler entry
		stop   bool         // PE 1
		sample bool         // set by PE 0 before a ping; the ping orders it for PE 1
		t2, t3 int64        // PE 1's timestamps of a sampled round, ordered by the pong
		t4     atomic.Int64 // PE 1's pong send-return, stored after the pong left
	)
	for _, name := range []string{"pingpong.round", "pingpong.handler", "core.alloc", "core.send", "core.deliver"} {
		tr.Sampled(name, ppEvery)
	}
	setup := func(cm *core.Machine) func(p *core.Proc) {
		var hPing, hPong, hStop int
		hPing = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			smp := sample
			if smp {
				t2 = now()
			}
			reply := p.Alloc(size)
			copy(core.Payload(reply), core.Payload(msg))
			core.SetHandler(reply, hPong)
			if smp {
				t3 = now()
			}
			p.SyncSendAndFree(0, reply)
			if smp {
				t4.Store(now())
			}
		})
		hPong = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			tEnd = now()
			pongs++
			if !bytes.Equal(core.Payload(msg), payload) {
				res.bad++
			}
		})
		hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { stop = true })
		return func(p *core.Proc) {
			switch p.MyPe() {
			case 0:
				start := now()
				warm, deadline := start+int64(d/10), start+int64(d)
				want := 0
				arrived := func() bool { return pongs == want }
				for i := 0; ; i++ {
					smp := tr != nil && i%ppEvery == 0
					sample = smp
					t4.Store(0)
					var ta, tb, t1 int64
					t0 := now()
					msg := p.Alloc(size)
					if smp {
						ta = now()
					}
					copy(core.Payload(msg), payload)
					core.SetHandler(msg, hPing)
					if smp {
						tb = now()
					}
					p.SyncSendAndFree(1, msg)
					if smp {
						t1 = now()
					}
					want++
					p.ServeUntil(arrived)
					res.rounds++
					if t0 >= warm {
						res.oneWay = append(res.oneWay, float64(tEnd-t0)/2e3)
						if smp {
							for t4.Load() == 0 { // PE 1 is just returning from its send
								runtime.Gosched()
							}
							req := tr.NewID()
							root := tr.Record("pingpong.round", 0, req, t0, tEnd)
							tr.Record("core.alloc", root, req, t0, ta)
							tr.Record("pingpong.handler", root, req, t0, tb)
							tr.Record("core.send", root, req, tb, t1)
							tr.Record("core.deliver", root, req, t1, t2)
							tr.Record("pingpong.handler", root, req, t2, t3)
							tr.Record("core.send", root, req, t3, t4.Load())
							tr.Record("core.deliver", root, req, t4.Load(), tEnd)
						}
					}
					if tEnd >= deadline {
						break
					}
				}
				msg := p.Alloc(0)
				core.SetHandler(msg, hStop)
				p.SyncSendAndFree(1, msg)
			case 1:
				p.ServeUntil(func() bool { return stop })
			}
		}
	}
	return sub.run(cfg, setup)
}

// fanPayload is the fan-in message payload: 56 bytes, so a message is
// 64 bytes with its header. Layout: [seq u64][sender word u64][tail 40].
const fanPayload = 56

// fanTarget is the wall time one fan-in burst is sized to.
const fanTarget = 40 * time.Millisecond

// fanEvery is the traced fan-in sender's sampling factor.
const fanEvery = 64

// fanResult accumulates the runs of a fan-in program.
type fanResult struct {
	rates        []float64 // delivered msgs/s per measured burst
	busy         []float64 // receiver busy share per measured burst (traced)
	bursts, bad  int       // every burst is checked
	allocsPerMsg []float64 // heap allocations per delivered message (traced)
}

// segments is how many times each program runs per workload run, each
// time on a fresh machine. The programs take turns, so slow drifts of
// the host — its other load, where threads land — reach every program
// alike, and each figure pools many machines.
const segments = 24

// fanIn has every PE but 0 send bursts of 64 B messages to PE 0 for d.
// PE 0 starts each burst by telling each sender how many to send, and
// times it to the last delivery; it checks the delivered count and a
// checksum over every payload. Burst sizes adapt toward fanTarget; the
// first burst is warm-up. words[s] is sender s's
// payload word and tail the shared payload tail, both generated.
// Results accumulate into res.
func fanIn(sub substrate, np int, cfg core.Config, words []uint64, tail []byte, d time.Duration, tr *Tracer, res *fanResult) error {
	senders := np - 1
	var (
		received int    // PE 0
		sum      uint64 // PE 0
		cmdM     = make([]int, np)
		cmdReady = make([]bool, np)
		seq      = make([]uint64, np) // per sender, next sequence number
		quiet    bool                 // set by PE 0 before a burst that counts allocations
	)
	tailWord := binary.LittleEndian.Uint64(tail[32:])
	tr.Sampled("fanin.alloc", fanEvery)
	tr.Sampled("fanin.send", fanEvery)
	setup := func(cm *core.Machine) func(p *core.Proc) {
		var hData, hCmd int
		hData = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			pl := core.Payload(msg)
			received++
			sum += binary.LittleEndian.Uint64(pl) ^ binary.LittleEndian.Uint64(pl[8:]) + binary.LittleEndian.Uint64(pl[48:])
		})
		hCmd = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
			me := p.MyPe()
			cmdM[me] = int(binary.LittleEndian.Uint64(core.Payload(msg)))
			cmdReady[me] = true
		})
		command := func(p *core.Proc, dst, m int) {
			msg := p.Alloc(8)
			binary.LittleEndian.PutUint64(core.Payload(msg), uint64(m))
			core.SetHandler(msg, hCmd)
			p.SyncSendAndFree(dst, msg)
		}
		return func(p *core.Proc) {
			me := p.MyPe()
			if me != 0 {
				ready := func() bool { return cmdReady[me] }
				for {
					p.ServeUntil(ready)
					cmdReady[me] = false
					m := cmdM[me]
					if m == 0 {
						return
					}
					sampling := tr != nil && !quiet
					for i := 0; i < m; i++ {
						smp := sampling && i%fanEvery == 0
						var t0, ta, tb int64
						if smp {
							t0 = now()
						}
						msg := p.Alloc(fanPayload)
						if smp {
							ta = now()
						}
						pl := core.Payload(msg)
						binary.LittleEndian.PutUint64(pl, seq[me])
						binary.LittleEndian.PutUint64(pl[8:], words[me])
						copy(pl[16:], tail)
						core.SetHandler(msg, hData)
						if smp {
							tb = now()
						}
						p.SyncSendAndFree(0, msg)
						if smp {
							t1 := now()
							tr.Record("fanin.alloc", 0, 0, t0, ta)
							tr.Record("fanin.send", 0, 0, tb, t1)
						}
						seq[me]++
					}
					p.Progress() // transmit any staged coalescing packs
				}
			}
			deadline := now() + int64(d)
			m := 2048
			var base uint64 // sequence number every sender starts this burst at
			target := 0
			done := func() bool { return received == target }
			burst := func(m int) (elapsed, idle int64) {
				target = received + m*senders
				sum = 0
				began := now()
				for s := 1; s <= senders; s++ {
					command(p, s, m)
				}
				if tr == nil {
					p.ServeUntil(done)
					return now() - began, 0
				}
				// Traced: serve in bounded slices and time the waits.
				for received < target {
					before := received
					p.Scheduler(256)
					if received == before {
						ti := now()
						progressed := func() bool { return received > before }
						p.ServeUntil(progressed)
						idle += now() - ti
					}
				}
				return now() - began, idle
			}
			check := func(m int) bool {
				var want uint64
				for s := 1; s <= senders; s++ {
					for i := 0; i < m; i++ {
						want += (base + uint64(i)) ^ words[s] + tailWord
					}
				}
				base += uint64(m)
				return received == target && sum == want
			}
			// The first burst calibrates the size and warms up; every
			// program records at least one burst after it.
			for b := 0; ; b++ {
				elapsed, idle := burst(m)
				res.bursts++
				if !check(m) {
					res.bad++
				}
				if b > 0 {
					res.rates = append(res.rates, float64(m*senders)/(float64(elapsed)/1e9))
					if tr != nil {
						res.busy = append(res.busy, 1-float64(idle)/float64(elapsed))
					}
				}
				if b > 0 && now() >= deadline {
					break
				}
				if elapsed > 0 {
					m = int(float64(m) * float64(fanTarget) / float64(elapsed))
				}
				m = max(1024, min(m, 1<<20))
			}
			if tr != nil {
				// One more burst, unsampled, counts heap allocations.
				quiet = true
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				burst(m)
				runtime.ReadMemStats(&after)
				res.bursts++
				if !check(m) {
					res.bad++
				}
				res.allocsPerMsg = append(res.allocsPerMsg, float64(after.Mallocs-before.Mallocs)/float64(m*senders))
			}
			for s := 1; s <= senders; s++ {
				command(p, s, 0)
			}
		}
	}
	return sub.run(cfg, setup)
}

// medianSetup times n bring-ups with bringUp and returns the median in
// seconds.
func medianSetup(n int, bringUp func() error) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := bringUp(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return Median(ts), nil
}

// regTotals sums the registry counters the message workloads report.
type regTotals struct {
	poolHits, poolMisses, staged, packs, sentMsgs, txFrames, txBytes, stalls uint64
}

func totals(reg *metrics.Registry) regTotals {
	var t regTotals
	if reg == nil {
		return t
	}
	for _, pe := range reg.Snapshot().PEs {
		t.poolHits += pe.PoolHits
		t.poolMisses += pe.PoolMisses
		t.staged += pe.CoalesceStaged
		t.packs += pe.CoalescePacks
		t.stalls += pe.NetStalls
		for i := range pe.SentMsgs {
			t.sentMsgs += pe.SentMsgs[i]
			t.txFrames += pe.NetTxFrames[i]
			t.txBytes += pe.NetTxBytes[i]
		}
	}
	return t
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func runMsg(e *Env, tcp bool) error {
	out, tr := e.Out, e.Tr
	np := max(2, e.NProc) // ping-pong needs two PEs even on one CPU
	gen := newRNG(e.Seed, 1)
	small := gen.bytes(fanPayload)
	bulk := gen.bytes(64 << 10)
	words := make([]uint64, np)
	for i := range words {
		words[i] = gen.next()
	}
	tail := gen.bytes(fanPayload - 16)

	// Bring-up: a fresh machine (sim) or control server plus mesh (tcp)
	// running an empty program, several times.
	var setupS float64
	var err error
	reps := 31
	if tcp {
		reps = 15
		setupS, err = medianSetup(reps, func() error {
			s, err := newTCPSub(np, nil)
			if err != nil {
				return err
			}
			defer s.close()
			return s.run(core.Config{Watchdog: 30 * time.Second}, emptyProgram)
		})
	} else {
		sim := &simSub{np: np}
		setupS, err = medianSetup(reps, func() error {
			return sim.run(core.Config{Watchdog: 30 * time.Second}, emptyProgram)
		})
	}
	if err != nil {
		return fmt.Errorf("bring-up: %w", err)
	}

	var sub substrate = &simSub{np: np}
	if tcp {
		s, err := newTCPSub(np, tr)
		if err != nil {
			return err
		}
		defer s.close()
		sub = s
	}
	budget := e.Budget
	ppShare := 0.30
	var probeDeliver float64 // sim delivery p50 in µs, for the tcp-vs-sim difference
	if tcp && tr != nil {
		// The traced tcp run also times delivery on the sim substrate.
		ppShare = 0.20
		probe := newTracer()
		var r ppResult
		if err := pingPong(&simSub{np: np}, core.Config{Watchdog: budget + time.Minute}, small, time.Duration(0.1*float64(budget)), probe, &r); err != nil {
			return fmt.Errorf("sim delivery probe: %w", err)
		}
		out.Attempted += r.rounds
		out.Failed += r.bad
		probeDeliver = probe.MedianNs("core.deliver") / 1e3
	}
	phase := func(share float64) (time.Duration, core.Config, *metrics.Registry) {
		d := time.Duration(share * float64(budget))
		cfg := core.Config{Watchdog: d + time.Minute}
		var reg *metrics.Registry
		if tr != nil {
			reg = metrics.New(np)
			cfg.Metrics = reg
		}
		return d, cfg, reg
	}

	ppD, ppCfg, ppReg := phase(ppShare)
	fanD, fanCfg, fanReg := phase(0.25)
	coD, coCfg, coReg := phase(0.25)
	coCfg.Coalesce = core.CoalesceConfig{Enabled: true}
	bulkD, bulkCfg, bulkReg := phase(0.20)
	var pp, bk ppResult
	var fan, fanCo fanResult
	for i := 0; i < segments; i++ {
		if err := pingPong(sub, ppCfg, small, ppD/segments, tr, &pp); err != nil {
			return fmt.Errorf("64 B ping-pong: %w", err)
		}
		if err := fanIn(sub, np, fanCfg, words, tail, fanD/segments, tr, &fan); err != nil {
			return fmt.Errorf("fan-in: %w", err)
		}
		if err := fanIn(sub, np, coCfg, words, tail, coD/segments, tr, &fanCo); err != nil {
			return fmt.Errorf("coalesced fan-in: %w", err)
		}
		if err := pingPong(sub, bulkCfg, bulk, bulkD/segments, nil, &bk); err != nil {
			return fmt.Errorf("64 KiB ping-pong: %w", err)
		}
	}

	for _, r := range []ppResult{pp, bk} {
		out.Attempted += r.rounds
		out.Failed += r.bad
	}
	for _, r := range []fanResult{fan, fanCo} {
		out.Attempted += r.bursts
		out.Failed += r.bad
	}
	ps := Summarize(pp.oneWay)
	fs := Summarize(fan.rates)
	cs := Summarize(fanCo.rates)
	bs := Summarize(bk.oneWay)
	bulkMB := float64(len(bulk)) / bs.P50 // bytes per µs = MB/s
	out.E2E["setup_s"] = setupS
	out.E2E["lat_p50_us"] = ps.P50
	out.E2E["lat_p99_us"] = ps.Tail
	out.E2E["ops_per_s"] = fs.P50
	out.E2E["ops2_per_s"] = cs.P50
	out.E2E["mb_per_s"] = bulkMB
	out.Main = ps.P50
	out.Linef("setup_s = %.6f s (median of %d bring-ups)", setupS, reps)
	out.Linef("pingpong_us_p50 = %.4f us (64 B one-way; %v)", ps.P50, ps)
	out.Linef("pingpong_us_p99 = %.4f us (p%g of n=%d rounds)", ps.Tail, ps.TailPct, ps.N)
	out.Linef("fanin_msgs_per_s = %.0f 1/s (sender PEs %d; bursts %v)", fs.P50, np-1, fs)
	out.Linef("fanin_coalesced_msgs_per_s = %.0f 1/s (bursts %v)", cs.P50, cs)
	out.Linef("bulk_mb_per_s = %.1f MB/s (64 KiB one-way %v us)", bulkMB, bs)
	if tr == nil {
		return nil
	}

	L := out.Layer
	sendNs := tr.MedianNs("core.send")
	deliverUs := tr.MedianNs("core.deliver") / 1e3
	handlerNs := tr.MedianNs("pingpong.handler")
	L["core.send_ns"] = sendNs
	L["core.alloc_ns"] = tr.MedianNs("core.alloc")
	all := totals(ppReg)
	for _, reg := range []*metrics.Registry{fanReg, coReg, bulkReg} {
		t := totals(reg)
		all.poolHits += t.poolHits
		all.poolMisses += t.poolMisses
	}
	L["core.pool_hit_ratio"] = ratio(float64(all.poolHits), float64(all.poolHits+all.poolMisses))
	L["core.allocs_per_msg"] = Median(fan.allocsPerMsg)
	L["core.deliver_us_p50"] = deliverUs
	L["core.handler_ns"] = handlerNs
	L["core.receiver_busy_share"] = Median(fan.busy)
	co := totals(coReg)
	L["core.msgs_per_pack"] = ratio(float64(co.staged), float64(co.packs))
	L["pingpong.traced_us_p50"] = ps.P50
	residual := ps.P50 - (sendNs/1e3 + deliverUs + handlerNs/1e3)
	L["pingpong.residual_us"] = residual
	out.Linef("pingpong split: send %.0f ns + deliver %.3f us + handler %.0f ns = %.3f us of pingpong_us_p50 %.3f us; residual %.3f us (medians of %d sampled rounds, 1 in %d)",
		sendNs, deliverUs, handlerNs, sendNs/1e3+deliverUs+handlerNs/1e3, ps.P50, residual, len(tr.Durations("pingpong.round")), ppEvery)
	out.Linef("fan-in sender: alloc %.0f ns, send %.0f ns (1 in %d messages); receiver busy share %.3f; allocs/msg %.3f",
		tr.MedianNs("fanin.alloc"), tr.MedianNs("fanin.send"), fanEvery, Median(fan.busy), Median(fan.allocsPerMsg))
	if tcp {
		ft, bt := totals(fanReg), totals(bulkReg)
		L["mnet.join_ms"] = tr.MedianNs("mnet.join") / 1e6
		L["mnet.frames_per_msg"] = ratio(float64(ft.txFrames), float64(ft.sentMsgs))
		L["mnet.stalls"] = float64(ft.stalls + co.stalls)
		L["mnet.wire_bytes_per_payload_byte"] = ratio(float64(bt.txBytes), float64(2*bk.rounds*len(bulk)))
		L["mnet.deliver_extra_us"] = deliverUs - probeDeliver
		out.Linef("mnet: join %.3f ms, %.3f frames/msg, %d stalls, %.4f wire B per payload B, delivery +%.3f us over sim (%.3f us)",
			L["mnet.join_ms"], L["mnet.frames_per_msg"], ft.stalls+co.stalls, L["mnet.wire_bytes_per_payload_byte"], L["mnet.deliver_extra_us"], probeDeliver)
	}
	return nil
}
