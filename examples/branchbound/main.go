// branchbound demonstrates the paper's §2.3 argument for prioritized
// queueing strategies: "branch-and-bound problems, where the lower-bound
// of a node must be used as a priority to get good speedups".
//
// A 0/1 knapsack instance is solved by message-driven branch and bound
// over the Charm-flavoured chare runtime on a 4-PE simulated machine:
// every search node is an asynchronous invocation of a solver chare on a
// pseudo-random processor; incumbent improvements are broadcast; the
// computation ends by quiescence detection.
//
// The same search runs twice: once with the scheduler's default FIFO
// lane, and once with each node prioritized by (the negation of) its
// optimistic bound, so the most promising subtrees are explored first.
// Best-first pruning expands far fewer nodes — the effect the paper says
// prioritized queueing exists to provide.
//
// Run with: go run ./examples/branchbound
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync/atomic"
	"time"

	"converse"
	"converse/internal/lang/charm"
	"converse/internal/ldb"
)

const (
	pes   = 4
	items = 18
)

// The knapsack instance (deterministic, moderately adversarial):
// weights and values with correlated noise, capacity at ~45%.
var (
	weights  [items]int64
	values   [items]int64
	capacity int64
)

func init() {
	state := int64(0x9e3779b9)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		v := (state >> 33) % mod
		if v < 0 {
			v += mod
		}
		return v
	}
	var total int64
	for i := 0; i < items; i++ {
		weights[i] = 10 + next(90)
		values[i] = weights[i] + next(40) // weakly correlated: hard-ish
		total += weights[i]
	}
	capacity = total * 45 / 100
}

// bound computes the fractional-relaxation optimistic bound for a node
// that has decided items [0,idx) with the given remaining capacity and
// accumulated value. Items are pre-sorted by density in sortOrder.
func bound(idx int, room, value int64) int64 {
	b := value
	for _, it := range sortOrder {
		if it < idx {
			continue
		}
		if weights[it] <= room {
			room -= weights[it]
			b += values[it]
		} else {
			b += values[it] * room / weights[it]
			break
		}
	}
	return b
}

// sortOrder holds item indices sorted by value density (descending).
var sortOrder [items]int

func init() {
	for i := range sortOrder {
		sortOrder[i] = i
	}
	for i := 1; i < items; i++ { // insertion sort by density
		for j := i; j > 0; j-- {
			a, b := sortOrder[j], sortOrder[j-1]
			if values[a]*weights[b] > values[b]*weights[a] {
				sortOrder[j], sortOrder[j-1] = b, a
			} else {
				break
			}
		}
	}
}

// node wire format: [idx u32][room i64][value i64]
func encodeNode(idx int, room, value int64) []byte {
	buf := make([]byte, 20)
	binary.LittleEndian.PutUint32(buf[0:], uint32(idx))
	binary.LittleEndian.PutUint64(buf[4:], uint64(room))
	binary.LittleEndian.PutUint64(buf[12:], uint64(value))
	return buf
}

func decodeNode(b []byte) (idx int, room, value int64) {
	return int(binary.LittleEndian.Uint32(b[0:])),
		int64(binary.LittleEndian.Uint64(b[4:])),
		int64(binary.LittleEndian.Uint64(b[12:]))
}

// solver is the per-PE chare holding the local incumbent.
type solver struct {
	best int64
}

// run executes one complete search and reports (best value, nodes
// expanded).
func run(prioritized bool) (int64, int64) {
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 120 * time.Second})
	var expanded int64
	var bestSeen int64 // reporting only; pruning uses per-PE incumbents

	err := cm.Run(func(p *converse.Proc) {
		rt := charm.Attach(p, ldb.NewSpray())
		var solverType int
		rng := uint32(p.MyPe()*2654435761 + 12345)
		nextPE := func() int {
			rng = rng*1664525 + 1013904223
			return int(rng>>16) % pes
		}
		spawn := func(rt *charm.RT, idx int, room, value int64) {
			// Scatter the shallow frontier for load balance; deeper
			// nodes stay local, so each processor's scheduler queue
			// holds a deep backlog whose service order is exactly the
			// queueing strategy under test.
			pe := rt.Proc().MyPe()
			if idx < 6 {
				pe = nextPE()
			}
			to := charm.ChareID{PE: pe, Local: 1}
			msg := encodeNode(idx, room, value)
			if prioritized {
				// Higher bound = more promising = lower priority value.
				rt.SendPrio(solverType, to, 0, msg, int32(-bound(idx, room, value)))
			} else {
				rt.Send(solverType, to, 0, msg)
			}
		}
		solverType = rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any { return &solver{} },
			// entry 0: expand a search node
			func(rt *charm.RT, obj any, msg []byte) {
				s := obj.(*solver)
				idx, room, value := decodeNode(msg)
				if bound(idx, room, value) <= s.best {
					return // pruned
				}
				atomic.AddInt64(&expanded, 1)
				if idx == items {
					if value > s.best {
						s.best = value
						for b := atomic.LoadInt64(&bestSeen); value > b; b = atomic.LoadInt64(&bestSeen) {
							if atomic.CompareAndSwapInt64(&bestSeen, b, value) {
								break
							}
						}
						// Broadcast the incumbent to every solver.
						nb := make([]byte, 8)
						binary.LittleEndian.PutUint64(nb, uint64(value))
						for pe := 0; pe < pes; pe++ {
							rt.Send(solverType, charm.ChareID{PE: pe, Local: 1}, 1, nb)
						}
					}
					return
				}
				it := sortOrder[idx]
				spawn(rt, idx+1, room, value) // branch: skip the item
				if weights[it] <= room {      // branch: take the item
					spawn(rt, idx+1, room-weights[it], value+values[it])
				}
			},
			// entry 1: incumbent update
			func(rt *charm.RT, obj any, msg []byte) {
				s := obj.(*solver)
				v := int64(binary.LittleEndian.Uint64(msg))
				if v > s.best {
					s.best = v
				}
			},
		)
		id := rt.CreateHere(solverType, nil) // Local id 1 on every PE
		if id.Local != 1 {
			panic("solver chare did not get local id 1")
		}
		if p.MyPe() == 0 {
			spawn(rt, 0, capacity, 0)
			rt.StartQD(func(rt *charm.RT) { rt.ExitAll() })
		}
		p.Scheduler(-1)
	})
	if err != nil {
		log.Fatal(err)
	}
	return atomic.LoadInt64(&bestSeen), atomic.LoadInt64(&expanded)
}

func main() {
	fmt.Printf("0/1 knapsack: %d items, capacity %d, %d PEs\n\n", items, capacity, pes)
	fifoBest, fifoNodes := run(false)
	prioBest, prioNodes := run(true)
	fmt.Printf("%-22s %-12s %-12s\n", "queueing strategy", "best value", "nodes expanded")
	fmt.Printf("%-22s %-12d %-12d\n", "FIFO (default lane)", fifoBest, fifoNodes)
	fmt.Printf("%-22s %-12d %-12d\n", "bound-prioritized", prioBest, prioNodes)
	if fifoBest != prioBest {
		log.Fatalf("strategies disagree on the optimum: %d vs %d", fifoBest, prioBest)
	}
	fmt.Printf("\nprioritized expansion explored %.1f%% of FIFO's nodes\n",
		100*float64(prioNodes)/float64(fifoNodes))
}
