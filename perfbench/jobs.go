package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"converse/internal/core"
	"converse/internal/metrics"
	"converse/internal/service"
)

// The service-jobs workload is a warm conversed cluster — a gateway and
// two daemons of two slots each, all in this process — driven by one
// closed-loop client per CPU. A client submits a job and waits for it
// through the pushed log stream (Client.Logs with follow, as converserun
// -daemon does), then submits the next. The job mix is half two-rank
// pingpong, which fits one daemon, and half four-rank jacobi, which
// spans both; their order and parameters come from the seed.
// When the run ends the gateway's job list is checked: every job must
// be done, with the bytes moved its deterministic program implies.

const (
	jobDaemons = 2
	jobSlots   = 2
	jobToken   = "perfbench-service"
)

// jobSpec is one generated job.
type jobSpec struct {
	Workload string
	Gang     int
	Args     map[string]int
}

// key identifies the spec's program for the bytes-moved reference.
func (s jobSpec) key() string {
	b, _ := json.Marshal(s) // plain types: cannot fail
	return string(b)
}

// jobMix generates the seeded job sequence the clients share: each job
// is either kind with equal odds, with parameters drawn from small sets.
// The kind is drawn rather than strictly alternated so that the clients'
// closed loops cannot lock into one phase (two pingpongs side by side, or
// every pingpong waiting behind a jacobi) for a whole run.
func jobMix(seed int64) func() jobSpec {
	gen := newRNG(seed, 3)
	var mu sync.Mutex
	return func() jobSpec {
		mu.Lock()
		defer mu.Unlock()
		if gen.intn(2) == 0 {
			return jobSpec{"pingpong", 2, map[string]int{"iters": 40 + 10*gen.intn(3), "bytes": 64 << gen.intn(3)}}
		}
		return jobSpec{"jacobi", 4, map[string]int{"n": 24 + 8*gen.intn(3), "iters": 6 + 2*gen.intn(3)}}
	}
}

// expectedBytes runs the spec's workload on a simulated machine with the
// given node map and returns the bytes its ranks send, which is what
// the service reports as BytesMoved.
func expectedBytes(sp jobSpec, nodes []int) (uint64, error) {
	wl, err := service.LookupWorkload(sp.Workload)
	if err != nil {
		return 0, err
	}
	args, _ := json.Marshal(sp.Args) // plain map: cannot fail
	reg := metrics.New(sp.Gang)
	cm := core.NewMachine(core.Config{PEs: sp.Gang, NodeSizes: nodes, Transport: core.TransportSim, Metrics: reg, Watchdog: 30 * time.Second})
	driver, err := wl(cm, args)
	if err != nil {
		return 0, err
	}
	if err := cm.Run(driver); err != nil {
		return 0, err
	}
	var sent uint64
	for _, pe := range reg.Snapshot().PEs {
		sent += pe.TotalSentBytes()
	}
	return sent, nil
}

// cluster is one gateway plus its daemons.
type cluster struct {
	g  *service.Gateway
	ds []*service.Daemon
}

func (c *cluster) close() {
	for _, d := range c.ds {
		d.Stop()
	}
	c.g.Close()
}

// startCluster brings a cluster up and waits until every daemon is
// registered and live.
func startCluster(tr *Tracer) (*cluster, error) {
	g, err := service.NewGateway(service.GatewayConfig{
		Addr: "127.0.0.1:0", Token: jobToken, Logf: func(string, ...any) {},
	})
	if err != nil {
		return nil, fmt.Errorf("starting the gateway: %w", err)
	}
	c := &cluster{g: g}
	for i := 0; i < jobDaemons; i++ {
		t0 := now()
		d, err := service.StartDaemon(service.DaemonConfig{
			Gateway: g.Addr(), Token: jobToken, Name: fmt.Sprintf("d%d", i), Slots: jobSlots,
		})
		tr.Record("service.register", 0, 0, t0, now())
		if err != nil {
			c.close()
			return nil, fmt.Errorf("starting daemon %d: %w", i, err)
		}
		c.ds = append(c.ds, d)
	}
	cl := &service.Client{Addr: g.Addr(), Token: jobToken}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		ds, _, _, err := cl.Cluster()
		live := 0
		for _, d := range ds {
			if d.Live && !d.Draining {
				live++
			}
		}
		if err == nil && live == jobDaemons {
			return c, nil
		}
		if time.Now().After(deadline) {
			c.close()
			return nil, fmt.Errorf("daemons not live after 10s (%d of %d, %v)", live, jobDaemons, err)
		}
	}
}

// jobRecord is one client-observed job.
type jobRecord struct {
	id       string
	spec     jobSpec
	latMs    float64 // submit to the log stream's end
	submitMs float64 // the Submit call alone
	measured bool    // started after warm-up
	ok       bool    // submitted and ended done
}

func runJobs(e *Env) error {
	out, tr := e.Out, e.Tr
	clients := max(1, e.NProc)

	// Bring-up: the whole cluster, several times; the last one serves.
	var c *cluster
	const bringUps = 9
	setups := make([]float64, 0, bringUps)
	for i := 0; i < bringUps; i++ {
		t0 := time.Now()
		cl, err := startCluster(tr)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < bringUps-1 {
			cl.close()
		} else {
			c = cl
		}
	}
	defer c.close()
	setupS := Median(setups)

	next := jobMix(e.Seed)
	start := time.Now()
	warm, deadline := start.Add(e.Budget/10), start.Add(e.Budget)
	recs := make([][]jobRecord, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl := &service.Client{Addr: c.g.Addr(), Token: jobToken}
			for time.Now().Before(deadline) {
				sp := next()
				r := jobRecord{spec: sp}
				t0 := time.Now()
				r.measured = t0.After(warm)
				id, err := cl.SubmitJob(service.SubmitSpec{Workload: sp.Workload, Args: sp.Args, Gang: sp.Gang})
				t1 := time.Now()
				r.submitMs = float64(t1.Sub(t0).Nanoseconds()) / 1e6
				if err == nil {
					r.id = id
					var state string
					state, _, err = cl.Logs(id, true, nil)
					r.ok = err == nil && state == string(service.Done)
				}
				t2 := time.Now()
				r.latMs = float64(t2.Sub(t0).Nanoseconds()) / 1e6
				if tr != nil {
					req := tr.NewID()
					root := tr.Record("service.job", 0, req, t0.Sub(epoch).Nanoseconds(), t2.Sub(epoch).Nanoseconds())
					tr.Record("service.submit", root, req, t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds())
					tr.Record("service.logs_follow", root, req, t1.Sub(epoch).Nanoseconds(), t2.Sub(epoch).Nanoseconds())
				}
				recs[ci] = append(recs[ci], r)
			}
		}(ci)
	}
	wg.Wait()
	elapsed := time.Since(warm).Seconds()

	// Check every job against the gateway's final view.
	infos, err := (&service.Client{Addr: c.g.Addr(), Token: jobToken}).Jobs()
	if err != nil {
		return fmt.Errorf("listing jobs: %w", err)
	}
	byID := map[string]service.JobInfo{}
	for _, in := range infos {
		byID[in.ID] = in
	}
	want := map[string]uint64{}
	var lat, submit, runMs, waitMs, notify []float64
	var measured, ranks, rejects, requeues int
	var bytesMoved uint64
	for _, rs := range recs {
		for _, r := range rs {
			if r.id == "" {
				rejects++
			}
			in, found := byID[r.id]
			ok := r.ok && found && in.State == string(service.Done)
			if ok {
				// A gang fills its daemons' slots evenly: one node per daemon.
				nodes := make([]int, max(1, len(in.Daemons)))
				for i := range nodes {
					nodes[i] = r.spec.Gang / len(nodes)
				}
				k := fmt.Sprint(r.spec.key(), nodes)
				exp, have := want[k]
				if !have {
					if exp, err = expectedBytes(r.spec, nodes); err != nil {
						return fmt.Errorf("bytes-moved reference for %s: %w", k, err)
					}
					want[k] = exp
				}
				ok = in.BytesMoved == exp
			}
			out.Check(ok)
			requeues += in.Requeues
			if !r.measured || !ok {
				continue
			}
			measured++
			ranks += r.spec.Gang
			bytesMoved += in.BytesMoved
			lat = append(lat, r.latMs)
			submit = append(submit, r.submitMs)
			runMs = append(runMs, in.RuntimeMS)
			waitMs = append(waitMs, in.QueueWaitMS)
			notify = append(notify, r.latMs-r.submitMs-in.QueueWaitMS-in.RuntimeMS)
		}
	}
	if measured == 0 {
		return fmt.Errorf("no job finished after warm-up")
	}

	ls := Summarize(lat)
	out.E2E["setup_s"] = setupS
	out.E2E["lat_p50_us"] = ls.P50 * 1e3
	out.E2E["lat_p99_us"] = ls.Tail * 1e3
	out.E2E["ops_per_s"] = float64(measured) / elapsed
	out.E2E["ops2_per_s"] = float64(ranks) / elapsed
	out.E2E["mb_per_s"] = float64(bytesMoved) / 1e6 / elapsed
	out.Main = ls.P50
	out.Linef("setup_s = %.6f s (median of %d cluster bring-ups: gateway + %d daemons x %d slots)", setupS, len(setups), jobDaemons, jobSlots)
	out.Linef("job_ms_p50 = %.4f ms (client-observed submit to done, %d closed-loop clients; %v)", ls.P50, clients, ls)
	out.Linef("job_ms_p99 = %.4f ms (p%g of n=%d jobs)", ls.Tail, ls.TailPct, ls.N)
	out.Linef("jobs_per_s = %.2f 1/s (%d jobs in %.2f s); ranks launched %.2f 1/s; job payload %.4f MB/s",
		out.E2E["ops_per_s"], measured, elapsed, out.E2E["ops2_per_s"], out.E2E["mb_per_s"])
	if tr == nil {
		return nil
	}
	L := out.Layer
	L["service.submit_ms"] = Median(submit)
	L["service.run_ms"] = Median(runMs)
	L["service.notify_ms"] = Median(notify)
	L["service.queue_wait_ms"] = Median(waitMs)
	L["service.register_ms"] = tr.MedianNs("service.register") / 1e6
	L["service.requeues"] = float64(requeues)
	L["service.rejects"] = float64(rejects)
	out.Linef("service: submit %.3f ms + queue wait %.3f ms + run %.3f ms + notify %.3f ms (medians of %d jobs); register %.3f ms; %d requeues, %d rejects",
		L["service.submit_ms"], L["service.queue_wait_ms"], L["service.run_ms"], L["service.notify_ms"], measured, L["service.register_ms"], requeues, rejects)
	return nil
}
