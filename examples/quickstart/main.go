// Quickstart: the smallest useful Converse program.
//
// It demonstrates the core model on a simulated 4-processor machine:
// generalized messages (first word names the handler), handler
// registration, the unified scheduler, and the virtual clock. Two
// mini-programs run back to back:
//
//  1. a ring: a token hops PE 0 -> 1 -> 2 -> 3 -> 0, each hop appending
//     its processor id;
//  2. a timed ping-pong between PE 0 and PE 1 over the Myrinet/FM cost
//     model, printing the modeled round-trip time for a few sizes —
//     a miniature of the paper's Figure 6 measurement.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"converse"
	"converse/internal/netmodel"
)

func main() {
	ring()
	pingpong()
}

// ring passes a token around all processors once.
func ring() {
	const pes = 4
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 30 * time.Second})

	var hToken, hDone int
	hToken = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		trail := append(converse.Payload(msg), byte('0'+p.MyPe()))
		if p.MyPe() == pes-1 {
			// Back to the start: report and shut everyone down.
			p.Printf("ring trail: %s\n", trail)
			p.SyncBroadcastAllAndFree(converse.MakeMsg(hDone, nil))
			return
		}
		p.SyncSendAndFree(p.MyPe()+1, converse.MakeMsg(hToken, trail))
	})
	hDone = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		p.ExitScheduler()
	})

	err := cm.Run(func(p *converse.Proc) {
		if p.MyPe() == 0 {
			p.SyncSendAndFree(1, converse.MakeMsg(hToken, []byte{'0'}))
		}
		p.Scheduler(-1) // implicit control regime: the scheduler drives
	})
	if err != nil {
		log.Fatal(err)
	}
}

// pingpong measures modeled round-trip times on the Myrinet/FM machine
// of Figure 6.
func pingpong() {
	mod := netmodel.MyrinetFM()
	cm := converse.NewMachine(converse.Config{PEs: 2, Model: mod, Watchdog: 30 * time.Second})
	hEcho := cm.RegisterHandler(func(p *converse.Proc, msg []byte) {})

	sizes := []int{16, 128, 1024, 16384}
	fmt.Printf("%-10s %-16s %-16s\n", "bytes", "one-way (model)", "one-way (run)")
	err := cm.Run(func(p *converse.Proc) {
		const rounds = 100
		for _, size := range sizes {
			msg := converse.NewMsg(hEcho, size-converse.HeaderSize)
			if p.MyPe() == 0 {
				start := p.TimerUs()
				for i := 0; i < rounds; i++ {
					p.SyncSend(1, msg)
					p.GetSpecificMsg(hEcho)
				}
				oneWay := (p.TimerUs() - start) / (2 * rounds)
				fmt.Printf("%-10d %-16.2f %-16.2f\n", size, mod.OneWayConverse(size), oneWay)
			} else {
				for i := 0; i < rounds; i++ {
					p.GetSpecificMsg(hEcho)
					p.SyncSend(0, msg)
				}
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
