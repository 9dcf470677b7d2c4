// traceview is the Projections-style performance analysis tool of
// §3.3.2: it runs a built-in workload under tracing (or reads a trace
// previously exported in the standard text format) and prints per-PE
// utilization bars, the top handlers by inclusive time, and the PE×PE
// message-volume matrix. With -json it also exports the merged stream
// as Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev)
// or chrome://tracing.
//
// Usage:
//
//	traceview [-workload pingpong|jacobi] [-pes n] [-machine name] [-rounds n]
//	          [-in trace.txt] [-json out.json] [-bins n] [-top n]
//
// Machines: atm-hp, t3d, myrinet-fm, sp1, paragon.
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	core "converse"
	"converse/internal/lang/sm"
	"converse/internal/metrics"
	"converse/internal/netmodel"
	"converse/internal/trace"
)

func main() {
	workload := flag.String("workload", "pingpong", "built-in workload to trace: pingpong, jacobi")
	pes := flag.Int("pes", 4, "number of processors for the built-in workload")
	machineName := flag.String("machine", "myrinet-fm", "machine model: atm-hp, t3d, myrinet-fm, sp1, paragon")
	rounds := flag.Int("rounds", 50, "pingpong rounds / jacobi iteration cap")
	inFile := flag.String("in", "", "read this exported trace instead of running a workload")
	jsonFile := flag.String("json", "", "write the merged stream as Chrome trace-event JSON here")
	bins := flag.Int("bins", 40, "time bins in the utilization display")
	top := flag.Int("top", 10, "handlers to list in the time profile")
	flag.Parse()

	var (
		events []core.TraceEvent
		nPEs   int
		schema *trace.Schema
		snap   *metrics.Snapshot
	)

	if *inFile != "" {
		parsed, err := readTrace(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		events, nPEs, schema = parsed.Events, parsed.PEs, parsed.Schema
		fmt.Printf("trace: %s (%d events, %d PEs)\n", *inFile, len(events), nPEs)
	} else {
		model := lookupModel(*machineName)
		col := trace.NewCollector(*pes)
		reg := metrics.New(*pes)
		switch strings.ToLower(*workload) {
		case "pingpong":
			runPingPong(col, reg, model, *pes, *rounds)
		case "jacobi":
			runJacobi(col, reg, model, *pes, *rounds)
		default:
			log.Fatalf("unknown workload %q", *workload)
		}
		events, nPEs, schema = col.Merged(), *pes, col.Schema()
		s := reg.Snapshot()
		snap = &s
		fmt.Printf("workload: %s on %d PEs (%s), %d trace events\n",
			*workload, nPEs, model.Name, len(events))
	}

	printUtilization(events, nPEs, *bins)
	printHandlerProfile(events, nPEs, *top, schema)
	printMessageMatrix(events, nPEs)
	if snap != nil {
		printMetrics(snap)
	}

	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteChrome(f, nPEs, events, schema); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nChrome trace-event JSON written to %s (open in ui.perfetto.dev)\n", *jsonFile)
	}
}

func lookupModel(name string) *netmodel.Model {
	switch strings.ToLower(name) {
	case "atm-hp", "atmhp":
		return netmodel.ATMHP()
	case "t3d":
		return netmodel.T3D()
	case "myrinet-fm", "fm", "myrinet":
		return netmodel.MyrinetFM()
	case "sp1", "sp":
		return netmodel.SP1()
	case "paragon":
		return netmodel.Paragon()
	default:
		log.Fatalf("unknown machine %q", name)
		return nil
	}
}

func readTrace(path string) (*trace.Parsed, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadText(f)
}

// --- built-in workloads ----------------------------------------------

// runPingPong circulates a token around the PE ring for the given
// number of laps, with every hop traced.
func runPingPong(col *trace.Collector, reg *metrics.Registry, model *netmodel.Model, pes, rounds int) {
	cm := core.NewMachine(core.Config{
		PEs: pes, Model: model, Watchdog: 60 * time.Second,
		Tracer: col.Tracer, Metrics: reg,
	})
	var hToken, hStop int
	hToken = cm.RegisterHandler(func(p *core.Proc, msg []byte) {
		laps := int(binary.LittleEndian.Uint32(core.Payload(msg)))
		if p.MyPe() == 0 {
			laps--
		}
		if laps == 0 {
			for d := 0; d < p.NumPes(); d++ {
				p.SyncSendAndFree(d, core.NewMsg(hStop, 0))
			}
			return
		}
		fwd := core.NewMsg(hToken, 4)
		binary.LittleEndian.PutUint32(core.Payload(fwd), uint32(laps))
		p.SyncSendAndFree((p.MyPe()+1)%p.NumPes(), fwd)
	})
	hStop = cm.RegisterHandler(func(p *core.Proc, msg []byte) { p.ExitScheduler() })
	col.Schema().NameHandler(hToken, "token")
	col.Schema().NameHandler(hStop, "stop")
	err := cm.Run(func(p *core.Proc) {
		if p.MyPe() == 0 {
			msg := core.NewMsg(hToken, 4)
			binary.LittleEndian.PutUint32(core.Payload(msg), uint32(rounds+1))
			p.SyncSendAndFree(1%p.NumPes(), msg)
		}
		p.Scheduler(-1)
	})
	if err != nil {
		log.Fatal(err)
	}
}

// runJacobi runs the 1-D Jacobi relaxation of examples/jacobi (SM-layer
// halo exchange plus a message-driven residual monitor) under tracing.
func runJacobi(col *trace.Collector, reg *metrics.Registry, model *netmodel.Model, pes, iterCap int) {
	const (
		perPE  = 16
		tol    = 1e-4
		leftT  = 0.0
		rightT = 100.0
	)
	const (
		tagLeft  = 1
		tagRight = 2
		tagDelta = 3
		tagConv  = 4
	)
	f64 := func(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }
	bytes64 := func(v float64) []byte {
		return binary.LittleEndian.AppendUint64(nil, math.Float64bits(v))
	}

	cm := core.NewMachine(core.Config{
		PEs: pes, Model: model, Watchdog: 120 * time.Second,
		Tracer: col.Tracer, Metrics: reg,
	})
	hMon := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	col.Schema().NameHandler(hMon, "residual-monitor")
	err := cm.Run(func(p *core.Proc) {
		s := sm.Attach(p)
		me := p.MyPe()
		u := make([]float64, perPE+2)
		nu := make([]float64, perPE+2)
		if me == 0 {
			u[0] = leftT
		}
		if me == pes-1 {
			u[perPE+1] = rightT
		}
		converged := false
		for it := 0; it < iterCap && !converged; it++ {
			if me > 0 {
				s.Send(me-1, tagRight, bytes64(u[1]))
			}
			if me < pes-1 {
				s.Send(me+1, tagLeft, bytes64(u[perPE]))
			}
			p.Scheduler(4)
			if me > 0 {
				d, _ := s.RecvFrom(me-1, tagLeft)
				u[0] = f64(d)
			}
			if me < pes-1 {
				d, _ := s.RecvFrom(me+1, tagRight)
				u[perPE+1] = f64(d)
			}
			var delta float64
			for i := 1; i <= perPE; i++ {
				nu[i] = 0.5 * (u[i-1] + u[i+1])
				delta = math.Max(delta, math.Abs(nu[i]-u[i]))
			}
			nu[0], nu[perPE+1] = u[0], u[perPE+1]
			u, nu = nu, u
			if me != 0 {
				s.Send(0, tagDelta, bytes64(delta))
				d, _, _ := s.Recv(tagConv)
				converged = d[0] == 1
			} else {
				for i := 1; i < pes; i++ {
					d, _, _ := s.Recv(tagDelta)
					delta = math.Max(delta, f64(d))
				}
				converged = delta < tol
				flag := []byte{0}
				if converged {
					flag[0] = 1
				}
				s.Broadcast(tagConv, flag)
				p.SyncSendAndFree(0, core.MakeMsg(hMon, bytes64(delta)))
			}
		}
		p.ScheduleUntilIdle()
	})
	if err != nil {
		log.Fatal(err)
	}
}

// --- report rendering ------------------------------------------------

func bar(frac float64, width int) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*float64(width) + 0.5)
	return strings.Repeat("#", n) + strings.Repeat(".", width-n)
}

func printUtilization(events []core.TraceEvent, pes, bins int) {
	u := trace.ComputeUtilization(events, pes, bins)
	nbins := 0
	if pes > 0 {
		nbins = len(u.Bins[0])
	}
	fmt.Printf("\nutilization over %.1f virtual us (%d bins of %.1f us):\n",
		u.End-u.Start, nbins, u.BinWidth())
	for pe := 0; pe < pes; pe++ {
		fmt.Printf("  PE %2d %5.1f%% |%s|\n", pe, 100*u.PEBusy(pe), bar(u.PEBusy(pe), 40))
	}
	var total float64
	for pe := 0; pe < pes; pe++ {
		total += u.PEBusy(pe)
	}
	fmt.Printf("  mean  %5.1f%%\n", 100*total/float64(pes))
}

func printHandlerProfile(events []core.TraceEvent, pes, top int, schema *trace.Schema) {
	prof := trace.HandlerProfile(events, pes)
	fmt.Printf("\ntop handlers by inclusive virtual time:\n")
	fmt.Printf("  %-24s %10s %12s %10s %10s\n", "handler", "calls", "incl us", "max us", "bytes")
	for i, h := range prof {
		if i >= top {
			fmt.Printf("  ... and %d more\n", len(prof)-top)
			break
		}
		name := fmt.Sprintf("handler-%d", h.Handler)
		if schema != nil {
			name = schema.HandlerName(h.Handler)
		}
		fmt.Printf("  %-24s %10d %12.1f %10.1f %10d\n",
			name, h.Count, h.InclusiveUs, h.MaxUs, h.Bytes)
	}
	if len(prof) == 0 {
		fmt.Printf("  (no handler events in trace)\n")
	}
}

func printMessageMatrix(events []core.TraceEvent, pes int) {
	msgs, bytes := trace.MessageMatrix(events, pes)
	fmt.Printf("\nmessage volume (messages, src row -> dst column):\n")
	fmt.Printf("  %6s", "")
	for d := 0; d < pes; d++ {
		fmt.Printf(" %8s", fmt.Sprintf("->%d", d))
	}
	fmt.Printf(" %10s\n", "bytes out")
	for s := 0; s < pes; s++ {
		fmt.Printf("  PE %2d", s)
		var rowBytes uint64
		for d := 0; d < pes; d++ {
			fmt.Printf(" %8d", msgs[s][d])
			rowBytes += bytes[s][d]
		}
		fmt.Printf(" %10d\n", rowBytes)
	}
}

func printMetrics(snap *metrics.Snapshot) {
	fmt.Printf("\nruntime metrics:\n")
	fmt.Printf("  %4s %10s %10s %10s %8s %8s %8s %8s\n",
		"PE", "busy us", "idle us", "dispatch", "q-hwm", "thr-sw", "seeds", "util")
	for _, pe := range snap.PEs {
		seeds := pe.SeedsDeposited + pe.SeedsRooted + pe.SeedsForwarded
		fmt.Printf("  %4d %10.1f %10.1f %10d %8d %8d %8d %7.1f%%\n",
			pe.PE, pe.BusyUs, pe.SchedIdleUs, pe.Dispatches, pe.QueueHWM,
			pe.ThreadSwitches, seeds, 100*pe.Utilization())
	}
	// Busiest handlers by metrics (latency histograms aggregated
	// machine-wide), complementing the trace-derived profile.
	totals := snap.HandlerTotals()
	sort.Slice(totals, func(i, j int) bool { return totals[i].TimeUs > totals[j].TimeUs })
	if len(totals) > 0 {
		h := totals[0]
		fmt.Printf("  hottest handler by metrics: id %d (%d calls, %.1f us total)\n",
			h.Handler, h.Count, h.TimeUs)
	}
}
