// namd-mini reenacts the paper's second §4 case study: the NAMD
// molecular dynamics story. NAMD's core computes short-range forces and
// "depends on the Fast Multipole Algorithm (FMA) to compute long-range
// electrostatic forces. There are two implementations of FMA, one in PVM
// and the other in Charm++ ... With Converse it will be possible to use
// the Charm++ version of NAMD with the PVM-based FMA module."
//
// This program is exactly that composition, in miniature, on a simulated
// 4-PE machine:
//
//   - The MD core is written in the Charm-flavoured chare runtime: one
//     "patch" chare per processor owns a slab of particles, exchanges
//     boundary particles with neighbor patches every step, and computes
//     short-range (cutoff) forces, all message-driven.
//
//   - The long-range module is written against the PVM-flavoured layer:
//     a loosely synchronous SPM collective that gathers charge moments
//     from every processor and returns a far-field approximation — a
//     stand-in for the PVM FMA.
//
// Each timestep, control passes explicitly from the message-driven core
// to the SPM module and back (§2.2's explicit regime embedded in an
// implicit one), exercising the interoperability the paper promises.
//
// Run with: go run ./examples/namd-mini
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"converse"
	"converse/internal/lang/charm"
	"converse/internal/lang/pvmc"
	"converse/internal/ldb"
)

const (
	pes      = 4
	perPatch = 64  // particles per patch (one patch per PE)
	steps    = 20  // MD timesteps
	cutoff   = 0.6 // short-range interaction radius
	boxLen   = 4.0 // periodic 1-D box
	dt       = 2e-4
)

// particle is a 1-D charged particle.
type particle struct {
	x, v, q float64
}

// patch is the per-processor chare owning a slab of the box.
type patch struct {
	parts []particle
	// ghost exchange state for the current step
	ghosts   []particle
	gotSides int
	stepDone bool
}

func encodeParticles(ps []particle) []byte {
	buf := make([]byte, 4+24*len(ps))
	binary.LittleEndian.PutUint32(buf, uint32(len(ps)))
	off := 4
	for _, p := range ps {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(p.x))
		binary.LittleEndian.PutUint64(buf[off+8:], math.Float64bits(p.v))
		binary.LittleEndian.PutUint64(buf[off+16:], math.Float64bits(p.q))
		off += 24
	}
	return buf
}

func decodeParticles(b []byte) []particle {
	n := int(binary.LittleEndian.Uint32(b))
	ps := make([]particle, n)
	off := 4
	for i := range ps {
		ps[i].x = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
		ps[i].v = math.Float64frombits(binary.LittleEndian.Uint64(b[off+8:]))
		ps[i].q = math.Float64frombits(binary.LittleEndian.Uint64(b[off+16:]))
		off += 24
	}
	return ps
}

// shortRangeForce is a softened Coulomb-like pair force with a cutoff.
func shortRangeForce(p, q particle) float64 {
	d := p.x - q.x
	// minimum-image convention in the periodic box
	if d > boxLen/2 {
		d -= boxLen
	}
	if d < -boxLen/2 {
		d += boxLen
	}
	if math.Abs(d) > cutoff || d == 0 {
		return 0
	}
	return p.q * q.q * d / (math.Abs(d*d*d) + 0.1)
}

// longRangeFMA is the PVM-based long-range module: a loosely synchronous
// collective. Every PE contributes its patch's total charge and dipole
// moment; every PE receives the global moments and derives a (crude)
// far-field force coefficient. The interface — call it, it blocks, all
// PEs participate — is exactly how an SPM FMA module would be reused.
func longRangeFMA(v *pvmc.PVM, qTot, dip float64) (gq, gdip float64) {
	const tagMoments = 70
	if v.Mytid() != 0 {
		v.InitSend().PackFloat64(qTot, dip)
		v.Send(0, tagMoments)
		v.Recv(0, tagMoments+1)
		return v.RecvBuf().UnpackFloat64(), v.RecvBuf().UnpackFloat64()
	}
	gq, gdip = qTot, dip
	for i := 1; i < v.NumTasks(); i++ {
		v.Recv(pvmc.Any, tagMoments)
		gq += v.RecvBuf().UnpackFloat64()
		gdip += v.RecvBuf().UnpackFloat64()
	}
	v.InitSend().PackFloat64(gq, gdip)
	v.Bcast(tagMoments + 1)
	return gq, gdip
}

func main() {
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 120 * time.Second})
	var totalEnergyDrift float64
	var exchanged int64

	err := cm.Run(func(p *converse.Proc) {
		me := p.MyPe()
		rt := charm.Attach(p, ldb.NewSpray())
		v := pvmc.Attach(p)

		var patchType int
		patchType = rt.Register(
			func(rt *charm.RT, self charm.ChareID, msg []byte) any {
				return &patch{parts: decodeParticles(msg)}
			},
			// entry 0: ghost particles from a neighbor patch
			func(rt *charm.RT, obj any, msg []byte) {
				pt := obj.(*patch)
				pt.ghosts = append(pt.ghosts, decodeParticles(msg)...)
				pt.gotSides++
				atomic.AddInt64(&exchanged, 1)
				if pt.gotSides == 2 {
					pt.stepDone = true
				}
			},
		)

		// Build the local patch: particles in slab [me, me+1) of the box.
		rng := rand.New(rand.NewSource(int64(me) * 7779))
		parts := make([]particle, perPatch)
		for i := range parts {
			parts[i] = particle{
				x: float64(me) + rng.Float64(),
				v: rng.NormFloat64() * 0.1,
				q: rng.Float64()*2 - 1,
			}
		}
		id := rt.CreateHere(patchType, encodeParticles(parts))
		pt := rt.Chare(id).(*patch)

		left := charm.ChareID{PE: (me + pes - 1) % pes, Local: 1}
		right := charm.ChareID{PE: (me + 1) % pes, Local: 1}

		energy0 := -1.0
		for step := 0; step < steps; step++ {
			// --- message-driven ghost exchange (Charm module) -------
			var lb, rb []particle // boundary particles near each edge
			for _, q := range pt.parts {
				if q.x-float64(me) < cutoff {
					lb = append(lb, q)
				}
				if float64(me+1)-q.x < cutoff {
					rb = append(rb, q)
				}
			}
			pt.ghosts = pt.ghosts[:0]
			pt.gotSides = 0
			pt.stepDone = false
			rt.Send(patchType, left, 0, encodeParticles(lb))
			rt.Send(patchType, right, 0, encodeParticles(rb))
			// Drive the scheduler until both neighbor slabs arrived.
			p.ServeUntil(func() bool { return pt.stepDone })

			// --- short-range forces (local + ghosts) ----------------
			forces := make([]float64, len(pt.parts))
			var qTot, dip float64
			for i, a := range pt.parts {
				for j, b := range pt.parts {
					if i != j {
						forces[i] += shortRangeForce(a, b)
					}
				}
				for _, g := range pt.ghosts {
					forces[i] += shortRangeForce(a, g)
				}
				qTot += a.q
				dip += a.q * a.x
			}

			// --- long-range forces via the PVM FMA module -----------
			// Control passes explicitly to the SPM module; all PEs
			// enter it together (loosely synchronous).
			gq, gdip := longRangeFMA(v, qTot, dip)
			center := gdip / (gq + 1e-12)
			for i, a := range pt.parts {
				// crude mean-field pull toward/away from the global
				// charge centroid
				forces[i] += 0.05 * a.q * gq * (center - a.x) / boxLen
			}

			// --- integrate ------------------------------------------
			var ke float64
			for i := range pt.parts {
				pt.parts[i].v += dt * forces[i]
				pt.parts[i].x += dt * pt.parts[i].v
				// periodic wrap (particles stay assigned to their patch
				// in this miniature; slabs overlap via ghosts)
				if pt.parts[i].x < 0 {
					pt.parts[i].x += boxLen
				}
				if pt.parts[i].x >= boxLen {
					pt.parts[i].x -= boxLen
				}
				ke += 0.5 * pt.parts[i].v * pt.parts[i].v
			}
			if energy0 < 0 {
				energy0 = ke
			}
			if me == 0 && (step == 0 || step == steps-1) {
				p.Printf("step %2d: kinetic energy %.5f, global charge %.4f\n", step, ke, gq)
			}
			if step == steps-1 && me == 0 {
				totalEnergyDrift = math.Abs(ke-energy0) / (energy0 + 1e-12)
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("namd-mini: %d PEs x %d particles, %d steps, %d ghost exchanges\n",
		pes, perPatch, steps, atomic.LoadInt64(&exchanged))
	fmt.Printf("relative kinetic-energy drift on PE0: %.3f\n", totalEnergyDrift)
}
