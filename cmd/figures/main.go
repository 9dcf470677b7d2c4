// figures regenerates the paper's evaluation figures (§5, Figures 4-8):
// message-passing performance of Converse versus the native layer on the
// five machines of the evaluation — HP workstations on an ATM switch
// (Fig. 4), Cray T3D (Fig. 5), Suns on Myrinet with FM including the
// scheduler-queueing experiment (Fig. 6), IBM SP-1 (Fig. 7), and the
// Intel Paragon under SUNMOS (Fig. 8).
//
// Usage:
//
//	figures [-fig N] [-rounds N]
//
// With no -fig, all five figures print. Times are virtual microseconds
// from the machine cost models driven through the real runtime code
// paths; EXPERIMENTS.md compares the shapes to the paper's.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"converse/internal/bench"
)

func main() {
	figNum := flag.Int("fig", 0, "figure number (4-8); 0 = all")
	rounds := flag.Int("rounds", 200, "round trips per measurement point")
	flag.Parse()

	printed := false
	for _, fig := range bench.Figures() {
		if *figNum != 0 && fig.Number != *figNum {
			continue
		}
		if err := bench.Print(os.Stdout, fig, *rounds); err != nil {
			log.Fatal(err)
		}
		printed = true
	}
	if !printed {
		fmt.Fprintf(os.Stderr, "no such figure %d (the paper has Figures 4-8)\n", *figNum)
		os.Exit(1)
	}
}
