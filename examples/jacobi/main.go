// jacobi shows the two control regimes of §2.2 sharing a processor: a
// loosely synchronous SPM stencil code (explicit regime, over the SM
// layer) that, while waiting for its halo exchanges, explicitly grants
// bounded scheduler time with ScheduleFor(n) — the paper's "This call is
// useful for SPM modules to allow a certain amount of concurrent
// execution while they wait for data" — so that a message-driven
// progress monitor (implicit regime) stays live during the solve.
//
// The computation is a 1-D Jacobi relaxation of a heat rod with fixed
// boundary temperatures, partitioned across processors.
//
// Run with: go run ./examples/jacobi
//
// With -trace FILE, the run is traced and the merged event stream is
// written as Chrome trace-event JSON, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing; cmd/traceview -in reads the
// text form written with -tracetext FILE.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"sync/atomic"
	"time"

	"converse"
	"converse/internal/lang/sm"
	"converse/internal/mnet"
	"converse/internal/trace"
)

const (
	maxIters = 100000
	leftT    = 0.0   // fixed boundary temperature, left end
	rightT   = 100.0 // fixed boundary temperature, right end
)

// perPE and tol are set from flags: problem size and convergence
// tolerance (the chaos-smoke CI gate shrinks the run with -perpe).
// pes follows the surrounding converserun job's topology (-np, or
// -nodes × -ppn); standalone sim runs keep the default.
var (
	pes   = 4
	perPE = 32
	tol   = 1e-5
)

const (
	tagLeft  = 1 // halo going left
	tagRight = 2 // halo going right
	tagDelta = 3 // per-iteration residual to PE0
	tagConv  = 4 // convergence broadcast
)

func f64(b []byte) float64     { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
func bytes64(v float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)) }

func main() {
	traceJSON := flag.String("trace", "", "write a Chrome trace-event JSON file of the run (Perfetto)")
	traceText := flag.String("tracetext", "", "write the run's trace in the standard text format (cmd/traceview -in)")
	minwall := flag.Duration("minwall", 0, "keep iterating at least this long even after convergence (gives monitors something to watch)")
	flag.IntVar(&perPE, "perpe", perPE, "interior points per processor")
	flag.Float64Var(&tol, "tol", tol, "convergence tolerance on the residual")
	flag.Parse()
	if perPE < 1 {
		log.Fatalf("jacobi: -perpe must be >= 1, got %d", perPE)
	}
	if n := mnet.JobPEs(); n > 0 {
		pes = n
	}

	cfg := converse.Config{PEs: pes, Watchdog: 120 * time.Second}
	var col *trace.Collector
	if *traceJSON != "" || *traceText != "" {
		col = trace.NewCollector(pes)
		cfg.Tracer = col.Tracer
	}
	cm := converse.NewMachine(cfg)
	var monitorTicks int64
	var iters int

	// The message-driven monitor: PE0 hosts a handler fed with residuals
	// and prints progress. It runs only when the SPM module grants the
	// scheduler cycles (ScheduleFor).
	var hMon int
	var monIters int64
	hMon = cm.RegisterHandler(func(p *converse.Proc, msg []byte) {
		atomic.AddInt64(&monitorTicks, 1)
		it := atomic.AddInt64(&monIters, 1)
		if it%1000 == 0 {
			p.Printf("monitor: iteration %d, residual %.3g\n", it, f64(converse.Payload(msg)))
		}
	})

	err := cm.Run(func(p *converse.Proc) {
		s := sm.Attach(p)
		me := p.MyPe()

		// Local slab with two ghost cells.
		u := make([]float64, perPE+2)
		nu := make([]float64, perPE+2)
		if me == 0 {
			u[0] = leftT
		}
		if me == pes-1 {
			u[perPE+1] = rightT
		}

		// Loop exit is decided by PE0 alone and carried on the tagConv
		// broadcast: convergence past any -minwall floor, or the
		// iteration cap. Ranks deciding independently (own clock, own
		// counter) could disagree near the boundaries and deadlock the
		// halo exchange.
		stop := false
		start := time.Now()
		for it := 0; !stop; it++ {
			// Halo exchange with neighbors (SPM explicit regime).
			if me > 0 {
				s.Send(me-1, tagRight, bytes64(u[1]))
			}
			if me < pes-1 {
				s.Send(me+1, tagLeft, bytes64(u[perPE]))
			}
			// While waiting, grant the implicit regime some cycles:
			// monitor messages get delivered here.
			p.Scheduler(4)
			if me > 0 {
				d, _ := s.RecvFrom(me-1, tagLeft)
				u[0] = f64(d)
			}
			if me < pes-1 {
				d, _ := s.RecvFrom(me+1, tagRight)
				u[perPE+1] = f64(d)
			}

			// Jacobi sweep.
			var delta float64
			for i := 1; i <= perPE; i++ {
				nu[i] = 0.5 * (u[i-1] + u[i+1])
				delta = math.Max(delta, math.Abs(nu[i]-u[i]))
			}
			nu[0], nu[perPE+1] = u[0], u[perPE+1]
			u, nu = nu, u

			// Reduce the residual at PE0, loosely synchronously.
			if me != 0 {
				s.Send(0, tagDelta, bytes64(delta))
				d, _, _ := s.Recv(tagConv)
				stop = d[0] == 1
			} else {
				for i := 1; i < pes; i++ {
					d, _, _ := s.Recv(tagDelta)
					delta = math.Max(delta, f64(d))
				}
				// The iteration cap yields to an unexpired -minwall
				// floor: the floor is a wall-clock bound, so lifting
				// the cap cannot run away.
				stop = (delta < tol || it+1 >= maxIters) && time.Since(start) >= *minwall
				flag := []byte{0}
				if stop {
					flag[0] = 1
				}
				s.Broadcast(tagConv, flag)
				// Feed the message-driven monitor (implicit regime).
				p.SyncSendAndFree(0, converse.MakeMsg(hMon, bytes64(delta)))
				iters = it + 1
			}
		}

		// Verify against the analytic solution: a straight line from
		// leftT to rightT.
		n := pes * perPE
		var maxErr float64
		for i := 1; i <= perPE; i++ {
			global := me*perPE + i
			want := leftT + (rightT-leftT)*float64(global)/float64(n+1)
			maxErr = math.Max(maxErr, math.Abs(u[i]-want))
		}
		if maxErr > 0.5 {
			p.Printf("pe %d: WARNING max error vs analytic = %v\n", me, maxErr)
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jacobi: %d points on %d PEs converged in %d iterations\n", pes*perPE, pes, iters)
	fmt.Printf("monitor handler ran %d times inside ScheduleFor windows\n", atomic.LoadInt64(&monitorTicks))

	if col != nil {
		col.Schema().NameHandler(hMon, "residual-monitor")
		if *traceJSON != "" {
			if err := writeFile(*traceJSON, col.WriteChrome); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("Chrome trace written to %s (open in ui.perfetto.dev)\n", *traceJSON)
		}
		if *traceText != "" {
			if err := writeFile(*traceText, col.WriteText); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("text trace written to %s (analyze with traceview -in)\n", *traceText)
		}
	}
}

// writeFile creates path and streams one of the collector's exports
// into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
