package main

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"converse/internal/core"
	"converse/internal/lang/charm"
	"converse/internal/lang/mdt"
	"converse/internal/ldb"
	"converse/internal/metrics"
)

// The interop-app workload is the paper's mixed-paradigm case on the
// simulated substrate, in two phases that each solve a stream of
// generated instances on a fresh machine per instance:
//
//   - a 0/1-knapsack branch and bound on charm chares: subproblems near
//     the root are created as chares whose placement the ldb random
//     policy picks, deeper nodes are SendPrio invocations prioritized by
//     their bound (best first), incumbents are broadcast, and
//     quiescence detection ends the search;
//   - a pipeline prime sieve of mdt threads, each blocked in Recv (cth
//     threads over the msgmgr tag table) on the numbers its predecessor
//     lets through.
//
// Every answer is checked against a serial reference computed before the
// timed solve: the knapsack optimum against dynamic programming, the
// primes against a serial sieve.

const (
	bnbItems     = 40  // items per knapsack instance
	bnbSeedDepth = 4   // nodes above this depth become ldb-placed chares
	sieveMin     = 400 // sieve limits are drawn from [sieveMin, sieveMin+sieveSpan)
	sieveSpan    = 200
	callEvery    = 8 // traced SendPrio, mdt Send and Recv: 1 call in callEvery records a span
)

// knapsack is one generated instance with its items ordered by value
// density for the fractional bound. Values track weights closely, the
// hard case for bound-based pruning.
type knapsack struct {
	w, v  []int64
	cap   int64
	order []int
}

func genKnapsack(r *rng) *knapsack {
	k := &knapsack{w: make([]int64, bnbItems), v: make([]int64, bnbItems), order: make([]int, bnbItems)}
	var total int64
	for i := range k.w {
		k.w[i] = 10 + int64(r.intn(90))
		k.v[i] = k.w[i] + 10 + int64(r.intn(10))
		total += k.w[i]
		k.order[i] = i
	}
	k.cap = total * 45 / 100
	sort.SliceStable(k.order, func(a, b int) bool {
		x, y := k.order[a], k.order[b]
		return k.v[x]*k.w[y] > k.v[y]*k.w[x]
	})
	return k
}

// bound is the fractional-relaxation bound of a node that has decided
// the first idx items of the density order.
func (k *knapsack) bound(idx int, room, value int64) int64 {
	b := value
	for _, it := range k.order[idx:] {
		if k.w[it] <= room {
			room -= k.w[it]
			b += k.v[it]
		} else {
			return b + k.v[it]*room/k.w[it]
		}
	}
	return b
}

// optimum is the serial dynamic-programming reference.
func (k *knapsack) optimum() int64 {
	best := make([]int64, k.cap+1)
	for i := range k.w {
		for c := k.cap; c >= k.w[i]; c-- {
			if v := best[c-k.w[i]] + k.v[i]; v > best[c] {
				best[c] = v
			}
		}
	}
	return best[k.cap]
}

type bnbNode struct {
	idx         int
	room, value int64
	bound       int64
}

type nodeHeap []bnbNode

func (h nodeHeap) Len() int           { return len(h) }
func (h nodeHeap) Less(i, j int) bool { return h[i].bound > h[j].bound }
func (h nodeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)        { *h = append(*h, x.(bnbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// serialExpansions counts the nodes a serial best-first search with the
// parallel search's pruning rule expands: the base of bnb.useful_ratio.
func (k *knapsack) serialExpansions() int64 {
	h := &nodeHeap{{0, k.cap, 0, k.bound(0, k.cap, 0)}}
	var best, expanded int64
	for h.Len() > 0 {
		n := heap.Pop(h).(bnbNode)
		if n.bound <= best {
			continue
		}
		expanded++
		if n.idx == bnbItems {
			best = max(best, n.value)
			continue
		}
		it := k.order[n.idx]
		heap.Push(h, bnbNode{n.idx + 1, n.room, n.value, k.bound(n.idx+1, n.room, n.value)})
		if k.w[it] <= n.room {
			r, v := n.room-k.w[it], n.value+k.v[it]
			heap.Push(h, bnbNode{n.idx + 1, r, v, k.bound(n.idx+1, r, v)})
		}
	}
	return expanded
}

func encodeNode(idx int, room, value int64) []byte {
	b := make([]byte, 20)
	binary.LittleEndian.PutUint32(b, uint32(idx))
	binary.LittleEndian.PutUint64(b[4:], uint64(room))
	binary.LittleEndian.PutUint64(b[12:], uint64(value))
	return b
}

func decodeNode(b []byte) (idx int, room, value int64) {
	return int(binary.LittleEndian.Uint32(b)), int64(binary.LittleEndian.Uint64(b[4:])), int64(binary.LittleEndian.Uint64(b[12:]))
}

// solver is the per-PE chare holding the local incumbent.
type solver struct{ best int64 }

// bnbRun is one solved instance.
type bnbRun struct {
	best, expanded int64
	payload        int64 // application bytes handed to charm
	invocations    int64 // chare messages processed
	qdNs           int64 // last useful work to quiescence (traced)
}

// solveBnB runs one branch and bound on a fresh np-PE machine.
func solveBnB(k *knapsack, np int, seed int64, reg *metrics.Registry, tr *Tracer) (bnbRun, error) {
	var out bnbRun
	bests := make([]int64, np)
	expanded := make([]int64, np)
	payload := make([]int64, np)
	processed := make([]uint64, np)
	lastWork := make([]atomic.Int64, np)
	var qdAt int64
	cm := core.NewMachine(core.Config{PEs: np, Transport: core.TransportSim, Watchdog: 30 * time.Second, Metrics: reg})
	err := cm.Run(func(p *core.Proc) {
		me := p.MyPe()
		rt := charm.Attach(p, ldb.NewRandom(seed+int64(me)))
		var solverType, subType int
		sends := 0
		sendPrio := func(rt *charm.RT, to charm.ChareID, node []byte, prio int32) {
			payload[me] += int64(len(node))
			if tr != nil && sends%callEvery == 0 {
				t0 := now()
				rt.SendPrio(solverType, to, 0, node, prio)
				tr.Record("charm.send_prio", 0, 0, t0, now())
			} else {
				rt.SendPrio(solverType, to, 0, node, prio)
			}
			sends++
		}
		// spawn hands a node to the search: near the root as a new chare
		// the balancer places, deeper as a prioritized local invocation.
		spawn := func(rt *charm.RT, idx int, room, value int64) {
			node := encodeNode(idx, room, value)
			if idx < bnbSeedDepth {
				payload[me] += int64(len(node))
				rt.Create(subType, node)
				return
			}
			sendPrio(rt, charm.ChareID{PE: me, Local: 1}, node, int32(-k.bound(idx, room, value)))
		}
		solverType = rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any { return &solver{} },
			// entry 0: expand a node
			func(rt *charm.RT, obj any, msg []byte) {
				s := obj.(*solver)
				idx, room, value := decodeNode(msg)
				if k.bound(idx, room, value) <= s.best {
					return
				}
				expanded[me]++
				if tr != nil {
					defer func() { lastWork[me].Store(now()) }()
				}
				if idx == bnbItems {
					if value > s.best {
						s.best = value
						nb := make([]byte, 8)
						binary.LittleEndian.PutUint64(nb, uint64(value))
						for pe := 0; pe < np; pe++ {
							payload[me] += 8
							rt.Send(solverType, charm.ChareID{PE: pe, Local: 1}, 1, nb)
						}
					}
					return
				}
				it := k.order[idx]
				spawn(rt, idx+1, room, value)
				if k.w[it] <= room {
					spawn(rt, idx+1, room-k.w[it], value+k.v[it])
				}
			},
			// entry 1: incumbent update
			func(rt *charm.RT, obj any, msg []byte) {
				s := obj.(*solver)
				if v := int64(binary.LittleEndian.Uint64(msg)); v > s.best {
					s.best = v
				}
			},
		)
		// A subproblem chare hands its node to its processor's solver.
		subType = rt.Register(func(rt *charm.RT, self charm.ChareID, msg []byte) any {
			idx, room, value := decodeNode(msg)
			sendPrio(rt, charm.ChareID{PE: me, Local: 1}, msg, int32(-k.bound(idx, room, value)))
			return nil
		})
		if id := rt.CreateHere(solverType, nil); id.Local != 1 {
			panic("solver chare did not get local id 1")
		}
		if me == 0 {
			spawn(rt, 0, k.cap, 0)
			rt.StartQD(func(rt *charm.RT) {
				qdAt = now()
				rt.ExitAll()
			})
		}
		p.Scheduler(-1)
		bests[me] = rt.Chare(charm.ChareID{PE: me, Local: 1}).(*solver).best
		_, processed[me] = rt.Stats()
	})
	var last int64
	for i := 0; i < np; i++ {
		out.best = max(out.best, bests[i])
		out.expanded += expanded[i]
		out.payload += payload[i]
		out.invocations += int64(processed[i])
		last = max(last, lastWork[i].Load())
	}
	if tr != nil {
		out.qdNs = qdAt - last
	}
	return out, err
}

// sieveStages bounds the pipeline length for a limit: it always exceeds
// the number of primes up to limit.
func sieveStages(limit int) int { return limit/4 + 16 }

// serialPrimes is the reference sieve.
func serialPrimes(limit int) []int {
	comp := make([]bool, limit+1)
	var ps []int
	for n := 2; n <= limit; n++ {
		if comp[n] {
			continue
		}
		ps = append(ps, n)
		for m := n * n; m <= limit; m += n {
			comp[m] = true
		}
	}
	return ps
}

// sieveRun is one solved sieve.
type sieveRun struct {
	primes []int
	msgs   int64
}

// solveSieve runs the pipeline sieve of numbers 2..limit on a fresh
// np-PE machine. Stage s is an mdt thread on PE s%np listening on tag
// s; it keeps the first number it receives as its prime and forwards the
// numbers that prime does not divide. A zero ends the stream.
func solveSieve(limit, np int, reg *metrics.Registry, tr *Tracer) (sieveRun, error) {
	var out sieveRun
	stages := sieveStages(limit)
	found := make([]int, stages) // stage s's prime, 0 if none reached it
	msgs := make([]int64, np)
	cm := core.NewMachine(core.Config{PEs: np, Transport: core.TransportSim, Watchdog: 30 * time.Second, Metrics: reg})
	err := cm.Run(func(p *core.Proc) {
		me := p.MyPe()
		m := mdt.Attach(p)
		calls := 0
		send := func(pe, tag int, n uint32) {
			buf := make([]byte, 4)
			binary.LittleEndian.PutUint32(buf, n)
			msgs[me]++
			if tr != nil && calls%callEvery == 0 {
				t0 := now()
				m.Send(pe, tag, buf)
				tr.Record("mdt.send", 0, 0, t0, now())
			} else {
				m.Send(pe, tag, buf)
			}
			calls++
		}
		recv := func(tag int) uint32 {
			if tr != nil && calls%callEvery == 0 {
				t0 := now()
				b := m.Recv(tag)
				tr.Record("mdt.recv", 0, 0, t0, now())
				calls++
				return binary.LittleEndian.Uint32(b)
			}
			calls++
			return binary.LittleEndian.Uint32(m.Recv(tag))
		}
		for s := me; s < stages; s += np {
			m.CreateThread(func() {
				next := func(n uint32) {
					if s+1 < stages {
						send((s+1)%np, s+1, n)
					}
				}
				prime := recv(s)
				if prime == 0 {
					next(0)
					return
				}
				found[s] = int(prime)
				for {
					n := recv(s)
					if n == 0 {
						next(0)
						return
					}
					if n%prime != 0 {
						next(n)
					}
				}
			})
		}
		if me == 0 {
			m.CreateThread(func() {
				for n := 2; n <= limit; n++ {
					send(0, 0, uint32(n))
				}
				send(0, 0, 0)
			})
		}
		m.Run()
	})
	for _, pr := range found {
		if pr != 0 {
			out.primes = append(out.primes, pr)
		}
	}
	for _, n := range msgs {
		out.msgs += n
	}
	return out, err
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runInterop(e *Env) error {
	out, tr := e.Out, e.Tr
	np := max(2, e.NProc)

	setupS, err := medianSetup(31, func() error {
		cm := core.NewMachine(core.Config{PEs: np, Transport: core.TransportSim, Watchdog: 30 * time.Second})
		return cm.Run(func(p *core.Proc) {
			charm.Attach(p, ldb.NewRandom(e.Seed))
			mdt.Attach(p)
		})
	})
	if err != nil {
		return fmt.Errorf("bring-up: %w", err)
	}

	var reg *metrics.Registry
	if tr != nil {
		reg = metrics.New(np)
		for _, name := range []string{"charm.send_prio", "mdt.send", "mdt.recv"} {
			tr.Sampled(name, callEvery)
		}
	}

	// Phase (a): branch and bound.
	gen := newRNG(e.Seed, 2)
	var bnbUs []float64
	var expanded, serial, payload, invocations, bnbNs int64
	var qdMs []float64
	start := time.Now()
	warm, deadline := start.Add(e.Budget/20), start.Add(e.Budget/2)
	for i := 0; time.Now().Before(deadline); i++ {
		k := genKnapsack(gen)
		want := k.optimum()
		var ref int64
		if tr != nil {
			ref = k.serialExpansions()
		}
		t0 := time.Now()
		run, err := solveBnB(k, np, e.Seed+int64(i), reg, tr)
		el := time.Since(t0)
		out.Check(err == nil && run.best == want)
		if err != nil {
			return fmt.Errorf("knapsack %d: %w", i, err)
		}
		if t0.Before(warm) {
			continue
		}
		bnbUs = append(bnbUs, float64(el.Nanoseconds())/1e3)
		bnbNs += el.Nanoseconds()
		expanded += run.expanded
		serial += ref
		payload += run.payload
		invocations += run.invocations
		qdMs = append(qdMs, float64(run.qdNs)/1e6)
	}

	// Phase (b): pipeline sieve, on its own input stream so its limits do
	// not depend on how many knapsacks phase (a) got through.
	gen = newRNG(e.Seed, 4)
	var sieveUs []float64
	var msgs, sieveNs int64
	start = time.Now()
	warm, deadline = start.Add(e.Budget/20), start.Add(e.Budget/2)
	for i := 0; time.Now().Before(deadline); i++ {
		limit := sieveMin + gen.intn(sieveSpan)
		want := serialPrimes(limit)
		t0 := time.Now()
		run, err := solveSieve(limit, np, reg, tr)
		el := time.Since(t0)
		out.Check(err == nil && equalInts(run.primes, want))
		if err != nil {
			return fmt.Errorf("sieve %d: %w", i, err)
		}
		if t0.Before(warm) {
			continue
		}
		sieveUs = append(sieveUs, float64(el.Nanoseconds())/1e3)
		sieveNs += el.Nanoseconds()
		msgs += run.msgs
		payload += 4 * run.msgs
	}

	bs, ss := Summarize(bnbUs), Summarize(sieveUs)
	out.E2E["setup_s"] = setupS
	out.E2E["lat_p50_us"] = bs.P50
	out.E2E["lat_p99_us"] = bs.Tail
	out.E2E["ops_per_s"] = 1e6 / ss.P50
	out.E2E["ops2_per_s"] = float64(expanded) / (float64(bnbNs) / 1e9)
	out.E2E["mb_per_s"] = float64(payload) / (float64(bnbNs+sieveNs) / 1e3)
	out.Main = bs.P50
	out.Linef("setup_s = %.6f s (median of 31 bring-ups)", setupS)
	out.Linef("bnb_solve_s = %.6f s (%d items; %v us)", bs.P50/1e6, bnbItems, bs)
	out.Linef("sieve_solve_s = %.6f s (limit %d..%d; %v us)", ss.P50/1e6, sieveMin, sieveMin+sieveSpan-1, ss)
	out.Linef("bnb nodes expanded per second = %.0f; sieve solves per second = %.2f; application payload %.3f MB/s",
		out.E2E["ops2_per_s"], out.E2E["ops_per_s"], out.E2E["mb_per_s"])
	if tr == nil {
		return nil
	}

	L := out.Layer
	var enq, hwm, sw, dep, fwd uint64
	for _, pe := range reg.Snapshot().PEs {
		enq += pe.Enqueues
		hwm = max(hwm, pe.QueueHWM)
		sw += pe.ThreadSwitches
		dep += pe.SeedsDeposited
		fwd += pe.SeedsForwarded
	}
	L["queue.enqueues"] = float64(enq)
	L["queue.depth_max"] = float64(hwm)
	L["charm.send_prio_ns"] = tr.MedianNs("charm.send_prio")
	L["charm.invocations"] = float64(invocations)
	L["charm.quiescence_ms"] = Median(qdMs)
	L["ldb.forward_ratio"] = ratio(float64(fwd), float64(dep))
	L["bnb.nodes_expanded"] = float64(expanded)
	L["bnb.useful_ratio"] = ratio(float64(serial), float64(expanded))
	L["cth.switches_per_msg"] = ratio(float64(sw), float64(msgs))
	L["mdt.recv_us"] = tr.MedianNs("mdt.recv") / 1e3
	L["mdt.send_ns"] = tr.MedianNs("mdt.send")
	out.Linef("charm: SendPrio %.0f ns (1 in %d), %d invocations, quiescence %.3f ms after the last expansion; ldb forwarded %d of %d seeds",
		L["charm.send_prio_ns"], callEvery, invocations, L["charm.quiescence_ms"], fwd, dep)
	out.Linef("bnb: %d nodes expanded, serial best-first needs %d (useful ratio %.3f); queue: %d enqueues, depth max %d",
		expanded, serial, L["bnb.useful_ratio"], enq, hwm)
	out.Linef("mdt: Recv %.2f us, Send %.0f ns (1 in %d); %.3f thread switches per message",
		L["mdt.recv_us"], L["mdt.send_ns"], callEvery, L["cth.switches_per_msg"])
	return nil
}
