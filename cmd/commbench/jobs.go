package main

// The -jobs mode: throughput and completion latency of the elastic
// service (BENCH_jobs.json). A warm conversed cluster — gateway plus
// three in-process daemons — takes a stream of small mixed jobs; the
// baseline runs the same stream cold, spinning a fresh one-daemon
// cluster up and down around every job, which is what per-job
// converserun launches cost. The gap is the value of keeping the
// mesh machinery warm.

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"converse/internal/service"
)

type jobsModeResult struct {
	Mode       string  `json:"mode"`
	Jobs       int     `json:"jobs"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
}

type jobsReport struct {
	Daemons       int            `json:"daemons"`
	SlotsPer      int            `json:"slots_per_daemon"`
	Gang          int            `json:"gang"`
	Warm          jobsModeResult `json:"warm_service"`
	Cold          jobsModeResult `json:"cold_launch_baseline"`
	Speedup       float64        `json:"throughput_speedup"`
	P50SpeedupLat float64        `json:"p50_latency_speedup"`
}

// jobsMain measures both modes and writes the report.
func jobsMain(out string, smoke bool) {
	nJobs, daemons, slots, gang := 48, 3, 4, 4
	if smoke {
		nJobs = 16
	}

	warm, err := runWarm(nJobs, daemons, slots, gang)
	if err != nil {
		log.Fatalf("commbench: warm service: %v", err)
	}
	cold, err := runCold(nJobs, slots, gang)
	if err != nil {
		log.Fatalf("commbench: cold baseline: %v", err)
	}

	r := jobsReport{
		Daemons: daemons, SlotsPer: slots, Gang: gang,
		Warm: warm, Cold: cold,
		Speedup:       warm.JobsPerSec / cold.JobsPerSec,
		P50SpeedupLat: cold.P50MS / warm.P50MS,
	}
	writeJSON(out, r)
	fmt.Fprintf(os.Stderr, "commbench: warm %.1f jobs/s (p50 %.1fms p99 %.1fms), cold %.1f jobs/s (p50 %.1fms), %.1fx throughput\n",
		warm.JobsPerSec, warm.P50MS, warm.P99MS, cold.JobsPerSec, cold.P50MS, r.Speedup)
}

// jobArgs alternates the two built-in workloads, small enough that
// per-job overhead (rendezvous, scheduling, teardown) dominates —
// which is exactly what this benchmark isolates.
func jobArgs(i int) (workload string, args map[string]int) {
	if i%2 == 0 {
		return "pingpong", map[string]int{"iters": 50, "bytes": 128}
	}
	return "jacobi", map[string]int{"n": 32, "iters": 8}
}

// runWarm pushes the whole stream through one long-lived cluster,
// keeping the backlog fed so the scheduler is never idle.
func runWarm(nJobs, daemons, slots, gang int) (jobsModeResult, error) {
	g, err := service.NewGateway(service.GatewayConfig{
		Addr: "127.0.0.1:0", BacklogCap: nJobs + 1,
		Logf: func(string, ...any) {},
	})
	if err != nil {
		return jobsModeResult{}, err
	}
	defer g.Close()
	for i := 0; i < daemons; i++ {
		d, err := service.StartDaemon(service.DaemonConfig{Gateway: g.Addr(), Slots: slots})
		if err != nil {
			return jobsModeResult{}, err
		}
		defer d.Stop()
	}
	c := &service.Client{Addr: g.Addr()}

	start := time.Now()
	ids := make([]string, nJobs)
	for i := range ids {
		wl, args := jobArgs(i)
		id, err := c.Submit("", wl, args, gang)
		if err != nil {
			return jobsModeResult{}, fmt.Errorf("submit %d: %w", i, err)
		}
		ids[i] = id
	}
	lat := make([]float64, 0, nJobs)
	for i, id := range ids {
		in, err := c.WaitJob(id, 120*time.Second)
		if err != nil {
			return jobsModeResult{}, err
		}
		if in.State != string(service.Done) {
			return jobsModeResult{}, fmt.Errorf("job %d (%s) ended %s: %s", i, id, in.State, in.Error)
		}
		lat = append(lat, in.QueueWaitMS+in.RuntimeMS)
	}
	elapsed := time.Since(start)
	return modeResult("warm", nJobs, elapsed, lat), nil
}

// runCold spins a fresh single-daemon cluster up and down around
// every job — the per-job process-launch shape, minus exec overhead
// (which only widens the real gap).
func runCold(nJobs, slots, gang int) (jobsModeResult, error) {
	start := time.Now()
	lat := make([]float64, 0, nJobs)
	for i := 0; i < nJobs; i++ {
		jobStart := time.Now()
		g, err := service.NewGateway(service.GatewayConfig{
			Addr: "127.0.0.1:0",
			Logf: func(string, ...any) {},
		})
		if err != nil {
			return jobsModeResult{}, err
		}
		d, err := service.StartDaemon(service.DaemonConfig{Gateway: g.Addr(), Slots: gang})
		if err != nil {
			g.Close()
			return jobsModeResult{}, err
		}
		c := &service.Client{Addr: g.Addr()}
		wl, args := jobArgs(i)
		id, err := c.Submit("", wl, args, gang)
		if err == nil {
			var in service.JobInfo
			in, err = c.WaitJob(id, 120*time.Second)
			if err == nil && in.State != string(service.Done) {
				err = fmt.Errorf("job %d ended %s: %s", i, in.State, in.Error)
			}
		}
		d.Stop()
		g.Close()
		if err != nil {
			return jobsModeResult{}, err
		}
		lat = append(lat, float64(time.Since(jobStart))/1e6)
	}
	return modeResult("cold", nJobs, time.Since(start), lat), nil
}

func modeResult(mode string, nJobs int, elapsed time.Duration, latMS []float64) jobsModeResult {
	sort.Float64s(latMS)
	pct := func(p float64) float64 {
		if len(latMS) == 0 {
			return 0
		}
		i := int(p * float64(len(latMS)-1))
		return latMS[i]
	}
	return jobsModeResult{
		Mode:       mode,
		Jobs:       nJobs,
		JobsPerSec: float64(nJobs) / elapsed.Seconds(),
		P50MS:      pct(0.50),
		P99MS:      pct(0.99),
	}
}
