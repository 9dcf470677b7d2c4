// Command perfbench is the repository's benchmark: four in-process
// workloads over the Converse stack — messaging on the simulated and
// the TCP substrate, jobs on the conversed cluster service, and the
// paper's mixed-paradigm interop application — each checked for correct
// output and reported with provenance.
//
//	perfbench -workload sim-msg -seed 1 -seconds 28 -trace 0
//
// With -trace 0 it prints the end-to-end metrics of one untraced run.
// With -trace 1 it runs the workload twice in the same time — once
// untraced, once with spans recorded around every call it makes into a
// layer and the metrics registry attached — and prints the per-layer
// metrics, including trace.overhead_ratio. A provenance line and
// human-readable metric lines come first on standard output, then one
// JSON result object: {"correct", "attempted", "failed", "metrics"}.
// -workload all runs the four workloads in turn in this one process,
// each with its own provenance and result. Failures go to standard
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Env is what a workload runs with. Tr is nil in the untraced run.
type Env struct {
	Seed   int64
	Budget time.Duration
	NProc  int
	Tr     *Tracer
	Out    *Report
}

// Report collects one workload run's results.
type Report struct {
	Attempted, Failed int
	// E2E holds the end-to-end metrics by BENCHMARK.json name.
	E2E map[string]float64
	// Layer holds the per-layer metrics by BENCHMARK.json name.
	Layer map[string]float64
	// Main is the workload's main timing (lower is better), the base of
	// trace.overhead_ratio.
	Main float64
	// Lines are the human-readable metric lines, under the names the
	// workload's own documentation uses.
	Lines []string
}

func newReport() *Report {
	return &Report{E2E: map[string]float64{}, Layer: map[string]float64{}}
}

// Linef adds a human-readable line.
func (r *Report) Linef(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Check counts one checked operation, failed unless ok.
func (r *Report) Check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// workload runs for env.Budget and fills env.Out.
type workload func(env *Env) error

// order lists the workloads as BENCHMARK.json does; -workload all runs
// them in this order.
var order = []string{"sim-msg", "tcp-msg", "service-jobs", "interop-app"}

var workloads = map[string]workload{
	"sim-msg":      func(e *Env) error { return runMsg(e, false) },
	"tcp-msg":      func(e *Env) error { return runMsg(e, true) },
	"service-jobs": runJobs,
	"interop-app":  runInterop,
}

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	Name, Unit string
}

// endToEnd and perLayer list the metrics of the two kinds of run, in
// BENCHMARK.json order (a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lat_p50_us", "us"},
	{"lat_p99_us", "us"},
	{"ops_per_s", "1/s"},
	{"ops2_per_s", "1/s"},
	{"mb_per_s", "MB/s"},
}

var perLayer = []metricDef{
	{"core.send_ns", "ns"},
	{"core.alloc_ns", "ns"},
	{"core.pool_hit_ratio", "ratio"},
	{"core.allocs_per_msg", "count"},
	{"core.deliver_us_p50", "us"},
	{"core.handler_ns", "ns"},
	{"core.receiver_busy_share", "ratio"},
	{"core.msgs_per_pack", "count"},
	{"pingpong.traced_us_p50", "us"},
	{"pingpong.residual_us", "us"},
	{"mnet.join_ms", "ms"},
	{"mnet.frames_per_msg", "count"},
	{"mnet.stalls", "count"},
	{"mnet.wire_bytes_per_payload_byte", "ratio"},
	{"mnet.deliver_extra_us", "us"},
	{"queue.enqueues", "count"},
	{"queue.depth_max", "count"},
	{"charm.send_prio_ns", "ns"},
	{"charm.invocations", "count"},
	{"charm.quiescence_ms", "ms"},
	{"ldb.forward_ratio", "ratio"},
	{"bnb.nodes_expanded", "count"},
	{"bnb.useful_ratio", "ratio"},
	{"cth.switches_per_msg", "count"},
	{"mdt.recv_us", "us"},
	{"mdt.send_ns", "ns"},
	{"service.submit_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.notify_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.register_ms", "ms"},
	{"service.requeues", "count"},
	{"service.rejects", "count"},
	{"trace.overhead_ratio", "ratio"},
}

// Provenance identifies where and on what a result was measured.
type Provenance struct {
	Host       string `json:"host"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	SrcDigest  string `json:"src_digest"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sim-msg, tcp-msg, service-jobs, interop-app, or all of them in turn")
	seed := flag.Int64("seed", 1, "input seed: payloads, instances and job mix derive from it")
	seconds := flag.Int("seconds", 28, "measured time of the run")
	trace := flag.Int("trace", 0, "1: also run traced and print the per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the measured source, for provenance")
	digest := flag.String("src-digest", "unknown", "digest of the measured source, for provenance")
	spans := flag.String("spans", "", "directory the traced run writes its spans to")
	flag.Parse()

	names := []string{*name}
	if *name == "all" {
		names = order
	}
	for _, n := range names {
		if _, ok := workloads[n]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
			fmt.Fprintf(os.Stderr, "perfbench: need -workload (all or one of %v), -seconds >= 1 and -trace 0|1\n", order)
			os.Exit(2)
		}
	}
	host, _ := os.Hostname() // provenance only; empty when unavailable
	prov := Provenance{
		Host: host, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: *commit, SrcDigest: *digest, Seed: *seed, Seconds: *seconds, Trace: *trace,
	}

	// A wedged layer must not hang the run: report it as a failure.
	budget := time.Duration(*seconds) * time.Second
	watchdog := time.AfterFunc(time.Duration(len(names))*budget+100*time.Second, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish in time\n", *name)
		printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
		os.Exit(1)
	})
	defer watchdog.Stop()

	correct := true
	for _, n := range names {
		prov.Workload = n
		if !measure(prov, budget, *spans) {
			correct = false
		}
	}
	if !correct {
		os.Exit(1)
	}
}

// measure runs one workload as prov names it, prints its lines and its
// result, and reports whether the result is correct.
func measure(prov Provenance, budget time.Duration, spans string) bool {
	name, wl := prov.Workload, workloads[prov.Workload]
	provJSON, _ := json.Marshal(prov) // plain struct: cannot fail
	fmt.Printf("provenance %s\n", provJSON)
	if prov.Trace == 0 {
		rep, err := runOne(wl, prov.Seed, budget, nil)
		if err != nil {
			return fail(name, err)
		}
		printLines(name, "", rep)
		return finish(rep, rep.E2E, endToEnd)
	}

	// Traced: the untraced half is the base of the overhead ratio.
	ref, err := runOne(wl, prov.Seed, budget/2, nil)
	if err != nil {
		return fail(name, err)
	}
	printLines(name, "untraced ", ref)
	tr := newTracer()
	rep, err := runOne(wl, prov.Seed, budget/2, tr)
	if err != nil {
		return fail(name, err)
	}
	rep.Attempted += ref.Attempted
	rep.Failed += ref.Failed
	rep.Layer["trace.overhead_ratio"] = rep.Main / ref.Main
	rep.Linef("trace.overhead_ratio = %.4f (traced %.4g over untraced %.4g, main timing)", rep.Main/ref.Main, rep.Main, ref.Main)
	printLines(name, "traced ", rep)
	if spans != "" {
		path := filepath.Join(spans, fmt.Sprintf("spans-%s-seed%d.jsonl", name, prov.Seed))
		if err := tr.Dump(path, prov); err != nil {
			return fail(name, err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	return finish(rep, rep.Layer, perLayer)
}

// runOne runs a workload once, turning a panic into an error.
func runOne(wl workload, seed int64, budget time.Duration, tr *Tracer) (rep *Report, err error) {
	rep = newReport()
	if tr != nil {
		// A layer a workload does not load reads zero.
		for _, m := range perLayer {
			rep.Layer[m.Name] = 0
		}
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	env := &Env{Seed: seed, Budget: budget, NProc: runtime.NumCPU(), Tr: tr, Out: rep}
	err = wl(env)
	return rep, err
}

func printLines(name, prefix string, rep *Report) {
	for _, l := range rep.Lines {
		fmt.Printf("%s %s%s\n", name, prefix, l)
	}
	rate := 0.0
	if rep.Attempted > 0 {
		rate = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("%s %serror_rate = %g (%d failed of %d attempted)\n", name, prefix, rate, rep.Failed, rep.Attempted)
}

// finish prints the result line of the metrics defs from got. Every
// declared metric must have been measured as a finite number; one that
// was not makes the run incorrect.
func finish(rep *Report, got map[string]float64, defs []metricDef) bool {
	correct := rep.Failed == 0 && rep.Attempted > 0
	out := map[string]metricOut{}
	for _, m := range defs {
		v, ok := got[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", m.Name)
			correct, v = false, 0
		}
		out[m.Name] = metricOut{v, m.Unit}
	}
	printResult(result{Correct: correct, Attempted: max(1, rep.Attempted), Failed: rep.Failed, Metrics: out})
	return correct
}

func fail(name string, err error) bool {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
	printResult(result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metricOut{}})
	return false
}

func printResult(r result) {
	b, _ := json.Marshal(r) // plain types: cannot fail
	fmt.Println(string(b))
}
