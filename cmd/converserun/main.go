// Command converserun is the job launcher for the TCP network machine
// layer — the counterpart of Converse's charmrun. It starts -np copies
// of a Converse program as worker processes on this host, serves their
// rendezvous (node-table exchange, go and release barriers), forwards
// their CmiPrintf output, and propagates failure: the job exits nonzero
// the moment any worker dies, wedges, or reports a fatal error.
//
// The program itself needs no changes to run under converserun: the
// launcher passes the job coordinates through the environment, and
// core.NewMachine joins the mesh automatically (Transport auto/tcp).
//
// By default each worker process hosts exactly one PE (the classic 1:1
// rank↔PE mapping). The -nodes/-ppn flags group PEs onto SMP-style
// nodes: -np 8 -ppn 2 starts 4 worker processes hosting 2 PEs each,
// with intra-node messages moving by in-memory pointer handoff instead
// of the wire.
//
// Under -daemon ADDR (or with CONVERSED_ADDR set) converserun instead
// submits to a running conversed cluster: the program argument names a
// registered workload, -np is the gang size, and the optional second
// argument is a JSON object of workload parameters. The job runs on
// the cluster's warm PEs; this process streams its console output and
// exits 0 only if the job completes.
//
// Usage:
//
//	converserun -np 4 ./jacobi -n 64 -iters 100
//	converserun -np 8 -ppn 2 ./jacobi -n 64 -iters 100
//	converserun -daemon 127.0.0.1:7077 -np 4 jacobi '{"n":64,"iters":100}'
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"converse/internal/mnet"
)

func main() {
	np := flag.Int("np", 1, "number of processors (PEs) in the job")
	nodes := flag.Int("nodes", 0, "number of worker processes (SMP nodes) to start; default -np/-ppn")
	ppn := flag.Int("ppn", 0, "PEs hosted per worker process; default -np/-nodes (1 if neither is given)")
	hosts := flag.String("hosts", "", "reserved: remote host list (only local jobs are supported so far)")
	timeout := flag.Duration("timeout", 0, "kill the whole job after this wall-clock time (0 = no limit)")
	heartbeat := flag.Duration("heartbeat", 0, "worker liveness interval (default 1s)")
	failure := flag.String("failure", "", "failure policy: failfast (default; first link fault kills the job) or retry (reliable links: ack/retransmit, reconnection, peer-down notification)")
	recovery := flag.Duration("recovery", 0, "under -failure retry, how long a lost link may take to recover before its peer is declared dead (default 8 heartbeats)")
	faults := flag.String("faults", "", `fault-injection plan applied by every worker to outbound data frames, e.g. "seed=7,drop=1%,killlink=1-0@120" (see internal/faultnet)`)
	monitor := flag.String("monitor", "", `serve a mesh-wide live-introspection socket on this address (e.g. "127.0.0.1:0"); poll it with conversetop`)
	daemon := flag.String("daemon", os.Getenv("CONVERSED_ADDR"), "submit to the conversed gateway at this address instead of launching processes (default $CONVERSED_ADDR)")
	svcToken := flag.String("token", os.Getenv("CONVERSED_TOKEN"), "service auth token for -daemon (default $CONVERSED_TOKEN)")
	deadline := flag.Duration("deadline", 0, "under -daemon: kill the job if it runs longer than this (0 = no limit)")
	maxmem := flag.Int("maxmem", 0, "under -daemon: kill the job if a rank's heap grows more than this many MiB (0 = no limit)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: converserun [flags] program [args...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *daemon != "" {
		if flag.NArg() < 1 || flag.NArg() > 2 {
			fmt.Fprintln(os.Stderr, "converserun: -daemon needs a workload name and optionally one JSON args object")
			flag.Usage()
			os.Exit(2)
		}
		args := ""
		if flag.NArg() == 2 {
			args = flag.Arg(1)
		}
		os.Exit(runSubmit(*daemon, *svcToken, flag.Arg(0), args, *np, *timeout, *deadline, *maxmem))
	}
	if *hosts != "" {
		fmt.Fprintln(os.Stderr, "converserun: -hosts is reserved for multi-host jobs and not implemented yet; run without it for a local job")
		os.Exit(2)
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	nNodes, nPPN, err := resolveTopology(*np, *nodes, *ppn)
	if err != nil {
		fmt.Fprintf(os.Stderr, "converserun: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	err = mnet.Launch(mnet.LaunchConfig{
		NP:             nNodes,
		PPN:            nPPN,
		Prog:           flag.Arg(0),
		Args:           flag.Args()[1:],
		Timeout:        *timeout,
		Heartbeat:      *heartbeat,
		FailurePolicy:  *failure,
		RecoveryWindow: *recovery,
		Faults:         *faults,
		Monitor:        *monitor,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "converserun: job failed after %v: %v\n", time.Since(start).Round(time.Millisecond), err)
		os.Exit(1)
	}
}

// resolveTopology validates -np/-nodes/-ppn against each other up front
// and derives the worker-process count and PEs-per-node. The invariant
// is nodes × ppn = np; a flag left at zero is derived from the others
// (neither given means the classic one PE per process).
func resolveTopology(np, nodes, ppn int) (int, int, error) {
	if np < 1 {
		return 0, 0, fmt.Errorf("-np must be >= 1, got %d", np)
	}
	if nodes < 0 || ppn < 0 {
		return 0, 0, fmt.Errorf("-nodes and -ppn must be positive (got -nodes %d -ppn %d)", nodes, ppn)
	}
	switch {
	case nodes == 0 && ppn == 0:
		return np, 1, nil
	case nodes == 0:
		if np%ppn != 0 {
			return 0, 0, fmt.Errorf("-np %d is not divisible by -ppn %d; give -nodes explicitly for an asymmetric machine", np, ppn)
		}
		return np / ppn, ppn, nil
	case ppn == 0:
		if np%nodes != 0 {
			return 0, 0, fmt.Errorf("-np %d is not divisible by -nodes %d; give -ppn explicitly for an asymmetric machine", np, nodes)
		}
		return nodes, np / nodes, nil
	default:
		if nodes*ppn != np {
			return 0, 0, fmt.Errorf("-nodes %d x -ppn %d is %d PEs, but -np is %d", nodes, ppn, nodes*ppn, np)
		}
		return nodes, ppn, nil
	}
}
