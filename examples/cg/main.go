// cg solves a linear system with the conjugate-gradient method written
// against the data-parallel layer (internal/lang/dp, the DP-Charm
// stand-in): block-distributed vectors, Shift for the matrix-vector
// product of a circulant operator, and spanning-tree reductions for the
// dot products. Everything is collective, loosely synchronous SPMD —
// the classic data-parallel notation the paper lists among its verified
// clients.
//
// The system: A x = b with A = circ(2+sigma, -1, 0, …, 0, -1), a shifted
// ring Laplacian (symmetric positive definite for sigma > 0).
//
// Run with: go run ./examples/cg
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"converse"
	"converse/internal/lang/dp"
)

const (
	pes   = 4
	n     = 64  // unknowns
	sigma = 0.5 // diagonal shift making A SPD
	tol   = 1e-10
)

// matvec computes y = A v for the shifted ring Laplacian using two
// cyclic shifts (collective).
func matvec(d *dp.DP, v *dp.Vector) *dp.Vector {
	up := v.Shift(1)
	down := v.Shift(-1)
	y := d.NewVector(v.Len(), nil)
	vl, ul, dl, yl := v.Local(), up.Local(), down.Local(), y.Local()
	for k := range yl {
		yl[k] = (2+sigma)*vl[k] - ul[k] - dl[k]
	}
	return y
}

func main() {
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 60 * time.Second})
	var iters int
	var relRes float64
	err := cm.Run(func(p *converse.Proc) {
		d := dp.Attach(p)

		b := d.NewVector(n, func(i int) float64 { return math.Sin(0.3*float64(i)) + 1 })
		x := d.NewVector(n, nil) // x0 = 0
		r := d.NewVector(n, nil)
		copy(r.Local(), b.Local()) // r = b - A*0
		pvec := d.NewVector(n, nil)
		copy(pvec.Local(), r.Local())

		bNorm := b.Norm2()
		rr := r.Dot(r)
		it := 0
		for ; it < 2*n; it++ {
			if math.Sqrt(rr)/bNorm < tol {
				break
			}
			ap := matvec(d, pvec)
			alpha := rr / pvec.Dot(ap)
			x.Axpy(alpha, pvec)
			r.Axpy(-alpha, ap)
			rrNew := r.Dot(r)
			beta := rrNew / rr
			rr = rrNew
			// p = r + beta*p
			pl, rl := pvec.Local(), r.Local()
			for k := range pl {
				pl[k] = rl[k] + beta*pl[k]
			}
		}

		// Verify: ||A x - b|| / ||b||.
		ax := matvec(d, x)
		ax.Zip(b, func(a, bb float64) float64 { return a - bb })
		res := ax.Norm2() / bNorm
		if p.MyPe() == 0 {
			iters = it
			relRes = res
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CG on A=circ(%.1f,-1,…,-1), n=%d, %d PEs\n", 2+sigma, n, pes)
	fmt.Printf("converged in %d iterations, final relative residual %.2e\n", iters, relRes)
	if relRes > 1e-8 {
		log.Fatalf("residual too large: %v", relRes)
	}
}
