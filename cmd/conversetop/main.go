// Command conversetop is the top-style viewer for a running Converse
// machine. It polls a live-introspection endpoint — the mesh-wide
// socket converserun serves under -monitor, or a single process's
// endpoint opened with Machine.StartMonitor — and renders per-PE
// utilization, scheduler queue, and traffic tables, refreshed in place;
// -json dumps the raw snapshot for scripts, and -pprof pulls a CPU or
// heap capture through the same socket and validates it.
//
// With -jobs, -connect names a conversed gateway instead of a mesh
// monitor, and the table is the cluster's job list: per-job state,
// gang size, queue wait, runtime, and bytes moved, with the daemon
// roster and admission backlog in the header.
//
// Usage:
//
//	conversetop -connect 127.0.0.1:40100                 # live tables
//	conversetop -connect ADDR -once                      # one table, exit
//	conversetop -connect ADDR -once -json                # one snapshot as JSON
//	conversetop -connect ADDR -pprof cpu -seconds 3 -rank 1 -o r1.pprof
//	conversetop -connect GATEWAY -jobs                   # conversed job table
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"converse/internal/ccs"
)

func main() {
	connect := flag.String("connect", "", "monitor address to poll (converserun prints it: \"converserun: monitor on ADDR token TOK\")")
	token := flag.String("token", "", "job auth token from the same converserun line (empty for monitors opened without one)")
	interval := flag.Duration("interval", 1*time.Second, "refresh interval in live mode")
	once := flag.Bool("once", false, "print one snapshot and exit")
	asJSON := flag.Bool("json", false, "dump snapshots as JSON instead of tables")
	pprofKind := flag.String("pprof", "", `fetch one pprof capture instead of snapshots: "cpu" or "heap"`)
	seconds := flag.Float64("seconds", 2, "CPU capture window for -pprof cpu")
	rank := flag.Int("rank", 0, "rank whose process to profile (through an aggregated monitor)")
	out := flag.String("o", "", "output file for -pprof (default <kind>.pprof)")
	jobs := flag.Bool("jobs", false, "-connect is a conversed gateway: render the cluster's job table")
	flag.Parse()
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "conversetop: -connect ADDR is required")
		flag.Usage()
		os.Exit(2)
	}

	if *jobs {
		os.Exit(runJobs(*connect, *token, *interval, *once, *asJSON))
	}

	if *pprofKind != "" {
		if err := fetchProfile(*connect, *token, *pprofKind, *seconds, *rank, *out); err != nil {
			fmt.Fprintf(os.Stderr, "conversetop: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var prev *ccs.Snapshot
	for {
		snap, err := ccs.Fetch(*connect, *token)
		if err != nil {
			fmt.Fprintf(os.Stderr, "conversetop: %v\n", err)
			os.Exit(1)
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(snap)
		} else {
			if !*once {
				// Clear and home, like top: the table repaints in place.
				fmt.Print("\x1b[H\x1b[2J")
			}
			render(os.Stdout, snap, prev)
		}
		if *once {
			return
		}
		prev = snap
		time.Sleep(*interval)
	}
}

// fetchProfile pulls one capture, validates that it parses as a pprof
// profile, reports its shape, and saves the raw bytes.
func fetchProfile(addr, token, kind string, seconds float64, rank int, out string) error {
	if out == "" {
		out = kind + ".pprof"
	}
	var buf bytes.Buffer
	if err := ccs.FetchProfile(addr, token, kind, seconds, rank, &buf); err != nil {
		return err
	}
	prof, err := ccs.ParseProfile(buf.Bytes())
	if err != nil {
		return fmt.Errorf("capture is not a valid pprof profile: %w", err)
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("conversetop: %s profile: %d samples, types %v, %d bytes -> %s\n",
		kind, len(prof.Samples), prof.SampleTypes, buf.Len(), out)
	for _, t := range topShares(prof, 5) {
		fmt.Printf("  %5.1f%% %s\n", t.share*100, t.fn)
	}
	return nil
}

type fnShare struct {
	fn    string
	share float64
}

// topShares ranks functions by cumulative share of the profile's last
// value column.
func topShares(p *ccs.Profile, n int) []fnShare {
	if len(p.SampleTypes) == 0 {
		return nil
	}
	col := len(p.SampleTypes) - 1
	total := p.Total(col)
	if total == 0 {
		return nil
	}
	cum := map[string]int64{}
	for _, s := range p.Samples {
		if col >= len(s.Values) {
			continue
		}
		seen := map[string]bool{}
		for _, fn := range s.Stack {
			if fn == "" || seen[fn] {
				continue
			}
			seen[fn] = true
			cum[fn] += s.Values[col]
		}
	}
	out := make([]fnShare, 0, len(cum))
	for fn, v := range cum {
		out = append(out, fnShare{fn, float64(v) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].share > out[j].share })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// render prints the per-PE table. With a previous snapshot, msg/s and
// B/s columns are rates over the inter-snapshot wall-clock delta;
// without one they are cumulative totals.
func render(w *os.File, snap, prev *ccs.Snapshot) {
	fmt.Fprintf(w, "converse mesh: %d PEs, %d reachable", snap.NumPEs, len(snap.PEs))
	if len(snap.Missing) > 0 {
		fmt.Fprintf(w, ", missing ranks %v", snap.Missing)
	}
	fmt.Fprintf(w, "  (%s)\n\n", time.Unix(0, snap.UnixNanos).Format("15:04:05"))

	rateHdr := "TOT-MSG   TOT-B"
	var dt float64
	prevByPE := map[int]ccs.PEView{}
	if prev != nil {
		dt = float64(snap.UnixNanos-prev.UnixNanos) / 1e9
		if dt > 0 {
			rateHdr = "MSG/s     B/s"
		}
		for _, v := range prev.PEs {
			prevByPE[v.PE] = v
		}
	}
	fmt.Fprintf(w, "%4s %4s %6s %6s %6s %6s %5s %-9s %-9s %7s %s\n",
		"PE", "RANK", "UTIL%", "QLEN", "QHWM", "INBOX", "IDLE", rateHdr[:7], rateHdr[8:], "STALLS", "STATE")
	for _, v := range snap.PEs {
		util, qhwm := "-", "-"
		sent, sentB := uint64(0), uint64(0)
		stalls := uint64(0)
		if m := v.Metrics; m != nil {
			util = fmt.Sprintf("%.1f", m.Utilization()*100)
			qhwm = fmt.Sprintf("%d", m.QueueHWM)
			sent, sentB = sum64(m.SentMsgs), m.TotalSentBytes()
			stalls = m.NetStalls
		}
		msgCol, byteCol := fmt.Sprintf("%d", sent), fmtBytes(sentB)
		if pv, ok := prevByPE[v.PE]; ok && dt > 0 && pv.Metrics != nil && v.Metrics != nil {
			dm := float64(sent-sum64(pv.Metrics.SentMsgs)) / dt
			db := float64(sentB-pv.Metrics.TotalSentBytes()) / dt
			msgCol, byteCol = fmt.Sprintf("%.0f", dm), fmtBytes(uint64(db))
		}
		state := v.Blocked
		if !v.Fresh {
			state += " [stale]"
		}
		fmt.Fprintf(w, "%4d %4d %6s %6d %6s %6d %5d %-9s %-9s %7d %s\n",
			v.PE, v.Rank, util, v.Sched.QueueLen, qhwm, v.InboxLen,
			v.Sched.IdleCount, msgCol, byteCol, stalls, state)
	}
}

func sum64(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fG", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fM", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fK", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d", b)
}
