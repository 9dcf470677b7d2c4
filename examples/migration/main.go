// migration demonstrates the two extended load-balancing situations the
// paper describes beyond seed balancing (§3.3.1, footnote 2): object
// migration with message forwarding, and quasi-dynamic load balancing —
// "after a phase ... the load and communication patterns are analyzed,
// and a new global distribution of entities to processors is derived."
//
// A set of worker chares with wildly uneven compute costs is created
// entirely on processor 0. The program runs two phases of computation;
// between phases it either does nothing (baseline) or calls
// charm.Rebalance. Compute cost is charged to the virtual clock, so the
// phase makespan — the maximum processor virtual time — shows directly
// what rebalancing buys. Messages in both phases are addressed to the
// chares' ORIGINAL ids: after migration they reach the moved chares
// through the forwarding machinery.
//
// Run with: go run ./examples/migration
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	"converse"
	"converse/internal/lang/charm"
	"converse/internal/ldb"
	"converse/internal/netmodel"
)

const (
	pes     = 4
	workers = 32
	phases  = 2
)

// workCost returns worker w's per-phase compute cost in microseconds:
// deliberately skewed so a few chares dominate.
func workCost(w int) float64 { return float64(50 + (w%8)*(w%8)*60) }

// worker is a migratable chare that charges its cost to the virtual
// clock when poked.
type worker struct {
	idx  int
	done int
}

func (w *worker) Pack() []byte {
	out := make([]byte, 8)
	binary.LittleEndian.PutUint32(out[0:], uint32(w.idx))
	binary.LittleEndian.PutUint32(out[4:], uint32(w.done))
	return out
}

func run(rebalance bool) (makespan float64) {
	cm := converse.NewMachine(converse.Config{
		PEs: pes, Model: netmodel.T3D(), Watchdog: 60 * time.Second,
	})
	var mu sync.Mutex
	var maxTime float64
	err := cm.Run(func(p *converse.Proc) {
		rt := charm.Attach(p, ldb.NewSpray())
		typeID := rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any {
				return &worker{idx: int(binary.LittleEndian.Uint32(msg))}
			},
			// entry 0: do one phase of work
			func(rt *charm.RT, obj any, msg []byte) {
				w := obj.(*worker)
				rt.Proc().PE().Charge(workCost(w.idx)) // the compute cost
				w.done++
			},
		)
		rt.SetUnpacker(typeID, func(rt *charm.RT, self charm.ChareID, blob []byte) any {
			return &worker{
				idx:  int(binary.LittleEndian.Uint32(blob[0:])),
				done: int(binary.LittleEndian.Uint32(blob[4:])),
			}
		})

		// All workers created on PE0: maximal imbalance.
		var ids []charm.ChareID
		if p.MyPe() == 0 {
			for w := 0; w < workers; w++ {
				payload := make([]byte, 4)
				binary.LittleEndian.PutUint32(payload, uint32(w))
				ids = append(ids, rt.CreateHere(typeID, payload))
			}
		}

		for phase := 0; phase < phases; phase++ {
			if rebalance {
				rt.Rebalance(typeID)
			}
			if p.MyPe() == 0 {
				for _, id := range ids {
					rt.Send(typeID, id, 0, nil) // original addresses
				}
				rt.StartQD(func(rt *charm.RT) { rt.ExitAll() })
			}
			p.Scheduler(-1)
		}
		mu.Lock()
		if t := p.TimerUs(); t > maxTime {
			maxTime = t
		}
		mu.Unlock()
	})
	if err != nil {
		log.Fatal(err)
	}
	return maxTime
}

func main() {
	baseline := run(false)
	balanced := run(true)
	fmt.Printf("%d uneven workers created on PE0 of a %d-PE T3D, %d phases\n\n", workers, pes, phases)
	fmt.Printf("%-28s %12s\n", "strategy", "makespan (us)")
	fmt.Printf("%-28s %12.0f\n", "no rebalancing", baseline)
	fmt.Printf("%-28s %12.0f\n", "quasi-dynamic rebalancing", balanced)
	if balanced >= baseline {
		log.Fatalf("rebalancing did not help (%.0f vs %.0f)", balanced, baseline)
	}
	fmt.Printf("\nspeedup from migration: %.2fx\n", baseline/balanced)
}
