// mdt-lang demonstrates the paper's §4 third benefit — "the ability to
// put together a new language quickly and efficiently" — using the mdt
// coordination language, whose entire runtime (internal/lang/mdt) is
// about 100 lines built from the message manager, the thread object and
// the Converse scheduler, mirroring the paper's one-day, ~100-line
// implementation story.
//
// The program is a distributed pipeline-sieve: a chain of message-driven
// threads spread across processors, each filtering multiples of its
// prime from the number stream — the classic CSP exercise, written in
// five lines of application logic per stage.
//
// Run with: go run ./examples/mdt-lang
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"sync"
	"time"

	"converse"
	"converse/internal/lang/mdt"
)

const (
	pes    = 4
	limit  = 200 // sieve numbers up to here
	maxLen = 50  // generous cap on pipeline stages
)

// Each sieve stage s lives on PE s%pes and listens on tag 1000+s.
func stagePE(s int) int  { return s % pes }
func stageTag(s int) int { return 1000 + s }

const end = 0 // sentinel value terminating the stream

func main() {
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 60 * time.Second})
	var mu sync.Mutex
	var primes []int

	err := cm.Run(func(p *converse.Proc) {
		m := mdt.Attach(p)
		me := p.MyPe()

		// Every PE hosts the stages assigned to it. A stage learns its
		// prime from the first number it receives, then filters.
		for s := 0; s < maxLen; s++ {
			if stagePE(s) != me {
				continue
			}
			m.CreateThread(func() {
				buf := make([]byte, 4)
				first := binary.LittleEndian.Uint32(m.Recv(stageTag(s)))
				if first == end {
					// Stream ended before reaching this stage: cascade
					// the sentinel so later stages terminate too.
					if s+1 < maxLen {
						binary.LittleEndian.PutUint32(buf, end)
						m.Send(stagePE(s+1), stageTag(s+1), buf)
					}
					return
				}
				prime := int(first)
				mu.Lock()
				primes = append(primes, prime)
				mu.Unlock()
				for {
					n := binary.LittleEndian.Uint32(m.Recv(stageTag(s)))
					if n == end {
						// Propagate the sentinel and finish.
						if s+1 < maxLen {
							binary.LittleEndian.PutUint32(buf, end)
							m.Send(stagePE(s+1), stageTag(s+1), buf)
						}
						return
					}
					if int(n)%prime != 0 {
						binary.LittleEndian.PutUint32(buf, n)
						m.Send(stagePE(s+1), stageTag(s+1), buf)
					}
				}
			})
		}

		// PE0 additionally runs the generator thread.
		if me == 0 {
			m.CreateThread(func() {
				buf := make([]byte, 4)
				for n := 2; n <= limit; n++ {
					binary.LittleEndian.PutUint32(buf, uint32(n))
					m.Send(stagePE(0), stageTag(0), buf)
				}
				binary.LittleEndian.PutUint32(buf, end)
				m.Send(stagePE(0), stageTag(0), buf)
			})
		}

		m.Run()
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("pipeline sieve over %d PEs found %d primes <= %d:\n", pes, len(primes), limit)
	fmt.Println(primes)
	if len(primes) != 46 || primes[0] != 2 || primes[len(primes)-1] != 199 {
		log.Fatalf("sieve is wrong (expected 46 primes up to 199)")
	}
}
