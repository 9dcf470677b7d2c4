package main

// The thin-client side of the elastic service: under -daemon ADDR (or
// CONVERSED_ADDR in the environment) converserun stops being a
// process launcher and becomes a submit tool — the job runs on the
// conversed cluster's warm PEs, and this process just streams its
// console output and exits with the job's fate.

import (
	"fmt"
	"os"
	"time"

	"converse/internal/service"
)

// runSubmit submits one named workload to a conversed gateway and
// follows it to a terminal state. gang is the PE count (-np); args is
// an optional JSON object with workload parameters; deadline and
// maxMemMB are the job's resource limits (0 = unlimited). Transient
// connect failures retry with jittered backoff for a few seconds — a
// gateway mid-restart refuses connections briefly, and a submit
// should outwait that rather than fail. Returns the process exit code.
func runSubmit(addr, token, workload, args string, gang int, timeout, deadline time.Duration, maxMemMB int) int {
	c := &service.Client{Addr: addr, Token: token}
	var rawArgs any
	if args != "" {
		rawArgs = jsonRaw(args)
	}
	start := time.Now()
	id, err := c.SubmitJob(service.SubmitSpec{
		Workload: workload, Args: rawArgs, Gang: gang,
		Deadline: deadline, MaxMemMB: maxMemMB,
		RetryWindow: 5 * time.Second,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "converserun: submit rejected: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "converserun: job %s submitted to %s (gang %d)\n", id, addr, gang)

	if timeout > 0 {
		t := time.AfterFunc(timeout, func() {
			fmt.Fprintf(os.Stderr, "converserun: timeout %v exceeded; cancelling %s\n", timeout, id)
			c.Cancel(id)
		})
		defer t.Stop()
	}

	state, jobErr, err := c.Logs(id, true, func(text string, isErr bool) {
		if isErr {
			fmt.Fprint(os.Stderr, text)
		} else {
			fmt.Fprint(os.Stdout, text)
		}
	})
	if err != nil {
		// The log stream broke (gateway restart, network); the job may
		// still be running — fall back to polling for the verdict.
		fmt.Fprintf(os.Stderr, "converserun: log stream lost (%v); polling for completion\n", err)
		in, werr := c.WaitJob(id, 24*time.Hour)
		if werr != nil {
			fmt.Fprintf(os.Stderr, "converserun: %v\n", werr)
			return 1
		}
		state, jobErr = in.State, in.Error
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	if state != string(service.Done) {
		fmt.Fprintf(os.Stderr, "converserun: job %s %s after %v: %s\n", id, state, elapsed, jobErr)
		return 1
	}
	if in, err := c.Status(id); err == nil {
		fmt.Fprintf(os.Stderr, "converserun: job %s done in %v (queued %.0fms, ran %.0fms, %d bytes moved)\n",
			id, elapsed, in.QueueWaitMS, in.RuntimeMS, in.BytesMoved)
	} else {
		fmt.Fprintf(os.Stderr, "converserun: job %s done in %v\n", id, elapsed)
	}
	return 0
}

// jsonRaw passes a pre-encoded JSON string through Client.Submit's
// re-marshalling unchanged.
type jsonRaw string

func (r jsonRaw) MarshalJSON() ([]byte, error) { return []byte(r), nil }
