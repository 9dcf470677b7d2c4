// pingpong is the standalone round-trip measurement tool behind the
// paper's §5 experiments: it sends messages back and forth between two
// processors of a simulated machine and reports the average one-way
// time, for a chosen machine model, message size, and layer.
//
// Usage:
//
//	pingpong [-machine name] [-size bytes] [-rounds n] [-layer native|converse|queued] [-trace file]
//
// Machines: atm-hp, t3d, myrinet-fm, sp1, paragon. With -trace, a small
// traced run is also performed and its event stream written in the
// standard trace format (§3.3.2).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	core "converse"
	"converse/internal/bench"
	"converse/internal/netmodel"
	"converse/internal/trace"
)

func main() {
	machineName := flag.String("machine", "myrinet-fm", "machine model: atm-hp, t3d, myrinet-fm, sp1, paragon")
	size := flag.Int("size", 64, "message size in bytes")
	rounds := flag.Int("rounds", 1000, "number of round trips")
	layer := flag.String("layer", "converse", "layer to measure: native, converse, queued")
	traceFile := flag.String("trace", "", "also write a 10-round traced run to this file")
	flag.Parse()

	var model *netmodel.Model
	switch strings.ToLower(*machineName) {
	case "atm-hp", "atmhp":
		model = netmodel.ATMHP()
	case "t3d":
		model = netmodel.T3D()
	case "myrinet-fm", "fm", "myrinet":
		model = netmodel.MyrinetFM()
	case "sp1", "sp":
		model = netmodel.SP1()
	case "paragon":
		model = netmodel.Paragon()
	default:
		log.Fatalf("unknown machine %q", *machineName)
	}

	var oneWay float64
	switch strings.ToLower(*layer) {
	case "native":
		oneWay = bench.Native(model, *size, *rounds)
	case "converse":
		oneWay = bench.Converse(model, *size, *rounds)
	case "queued":
		oneWay = bench.Queued(model, *size, *rounds)
	default:
		log.Fatalf("unknown layer %q", *layer)
	}

	fmt.Printf("%s, %d-byte messages, %d round trips, %s layer:\n",
		model.Name, *size, *rounds, *layer)
	fmt.Printf("  one-way time: %.2f us (round trip %.2f us)\n", oneWay, 2*oneWay)

	if *traceFile != "" {
		if err := writeTrace(model, *size, *traceFile); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  trace of a 10-round run written to %s\n", *traceFile)
	}
}

// writeTrace runs a short traced ping-pong and dumps the merged event
// stream in the standard format.
func writeTrace(model *netmodel.Model, size int, path string) error {
	col := trace.NewCollector(2)
	cm := core.NewMachine(core.Config{
		PEs: 2, Model: model, Watchdog: 30 * time.Second, Tracer: col.Tracer,
	})
	h := cm.RegisterHandler(func(p *core.Proc, msg []byte) {})
	payload := size - core.HeaderSize
	if payload < 0 {
		payload = 0
	}
	err := cm.Run(func(p *core.Proc) {
		msg := core.NewMsg(h, payload)
		for i := 0; i < 10; i++ {
			if p.MyPe() == 0 {
				p.SyncSend(1, msg)
				p.GetSpecificMsg(h)
			} else {
				p.GetSpecificMsg(h)
				p.SyncSend(0, msg)
			}
		}
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return col.WriteText(f)
}
