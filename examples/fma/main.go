// fma is the paper's §4 interoperability case study: a Fast Multipole
// Algorithm skeleton in which each phase uses the paradigm that fits it,
// all in one program on one simulated machine:
//
//   - Phase 1 — tree formation — is a traditional single-process module
//     (SPM) written against the SM messaging layer: a loosely synchronous
//     exchange computing the global bounding box and the per-leaf
//     particle counts ("this subdivision, in its simple formulation, can
//     be implemented in a traditional single-process module").
//
//   - Phase 2 — the all-to-all transfer of particles to their cells — is
//     message-driven, using the Charm-flavoured chare runtime: each leaf
//     cell is a chare that "continues execution as soon as all of its
//     particles have arrived".
//
//   - Phase 3 — the upward pass — expresses "the logic of individual
//     cells ... naturally as threads which communicate along the edges of
//     the tree": each internal tree node is a tSM thread that waits for
//     its two children's multipole summaries and forwards the combination
//     to its parent.
//
// The three runtimes share each processor under the unified Converse
// scheduler; control moves between them implicitly.
//
// Run with: go run ./examples/fma
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"converse"
	"converse/internal/lang/charm"
	"converse/internal/lang/sm"
	"converse/internal/lang/tsm"
	"converse/internal/ldb"
)

const (
	pes       = 4
	depth     = 3                // binary tree: nodes 0..2^(depth+1)-2
	nodes     = 1<<(depth+1) - 1 // 15
	firstLeaf = 1<<depth - 1     // 7
	leaves    = 1 << depth       // 8
	perPE     = 200              // particles generated per processor
)

// owner maps a tree node to its processor.
func owner(node int) int { return node % pes }

// leafOf maps a position in the global box to a leaf node index.
func leafOf(x, lo, hi float64) int {
	f := (x - lo) / (hi - lo)
	cell := int(f * leaves)
	if cell >= leaves {
		cell = leaves - 1
	}
	return firstLeaf + cell
}

// leafChareLocal computes the processor-local chare id that leaf got at
// creation: each processor creates its owned leaves in increasing node
// order, so the k-th owned leaf has local id k+1.
func leafChareLocal(leaf int) uint32 {
	k := uint32(0)
	for n := firstLeaf; n < leaf; n++ {
		if owner(n) == owner(leaf) {
			k++
		}
	}
	return k + 1
}

// tags for the SPM phase and the thread phase.
const (
	tagBox    = 1   // particle bounds to PE0
	tagBoxBC  = 2   // global box broadcast
	tagCount  = 3   // per-leaf counts to PE0
	tagExpect = 4   // expected-count broadcast
	tagResult = 900 // root result broadcast to every PE
	tagNode   = 100 // +node: child->parent multipole messages
)

// multipole is the summary a cell passes up: total mass and the
// mass-weighted coordinate sum.
type multipole struct {
	mass, wx float64
	count    int64
}

func encodeMP(m multipole) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(m.mass))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(m.wx))
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.count))
	return buf
}

func decodeMP(b []byte) multipole {
	return multipole{
		mass:  math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		wx:    math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		count: int64(binary.LittleEndian.Uint64(b[16:])),
	}
}

// leafCell is the phase-2 chare: it absorbs particles and, once all
// expected ones have arrived, emits its multipole into the thread phase.
type leafCell struct {
	node     int
	expected int
	mp       multipole
}

func main() {
	cm := converse.NewMachine(converse.Config{PEs: pes, Watchdog: 60 * time.Second})
	err := cm.Run(run)
	if err != nil {
		log.Fatal(err)
	}
}

func run(p *converse.Proc) {
	me := p.MyPe()
	s := sm.Attach(p)
	ts := tsm.Attach(p)
	rt := charm.Attach(p, ldb.NewSpray())

	// Register the leaf-cell chare type (same order on every PE).
	var leafType int
	leafType = rt.Register(
		func(rt *charm.RT, self charm.ChareID, msg []byte) any {
			return &leafCell{
				node:     int(binary.LittleEndian.Uint32(msg[0:])),
				expected: int(binary.LittleEndian.Uint32(msg[4:])),
			}
		},
		// entry 0: a particle arrives: [x f64][mass f64]
		func(rt *charm.RT, obj any, msg []byte) {
			c := obj.(*leafCell)
			x := math.Float64frombits(binary.LittleEndian.Uint64(msg[0:]))
			mass := math.Float64frombits(binary.LittleEndian.Uint64(msg[8:]))
			c.mp.mass += mass
			c.mp.wx += mass * x
			c.mp.count++
			if int(c.mp.count) == c.expected {
				// Cell complete: hand the summary to the thread phase
				// along the tree edge to the parent.
				parent := (c.node - 1) / 2
				t := tsm.Attach(rt.Proc())
				t.Send(owner(parent), tagNode+parent, encodeMP(c.mp))
			}
		},
	)

	// --- Phase 1: SPM tree formation over SM -------------------------
	rng := rand.New(rand.NewSource(int64(me) + 1))
	xs := make([]float64, perPE)
	masses := make([]float64, perPE)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range xs {
		xs[i] = rng.Float64()*10 - 5
		masses[i] = 0.5 + rng.Float64()
		lo = math.Min(lo, xs[i])
		hi = math.Max(hi, xs[i])
	}
	// Reduce the bounding box at PE0, loosely synchronously.
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(hi))
	if me != 0 {
		s.Send(0, tagBox, buf)
		box, _, _ := s.Recv(tagBoxBC)
		lo = math.Float64frombits(binary.LittleEndian.Uint64(box[0:]))
		hi = math.Float64frombits(binary.LittleEndian.Uint64(box[8:]))
	} else {
		for i := 1; i < pes; i++ {
			d, _, _ := s.Recv(tagBox)
			lo = math.Min(lo, math.Float64frombits(binary.LittleEndian.Uint64(d[0:])))
			hi = math.Max(hi, math.Float64frombits(binary.LittleEndian.Uint64(d[8:])))
		}
		binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(lo))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(hi))
		s.Broadcast(tagBoxBC, buf)
	}
	// Count local particles per leaf; sum the counts at PE0.
	counts := make([]uint32, leaves)
	for _, x := range xs {
		counts[leafOf(x, lo, hi)-firstLeaf]++
	}
	cbuf := make([]byte, 4*leaves)
	for i, c := range counts {
		binary.LittleEndian.PutUint32(cbuf[4*i:], c)
	}
	expected := make([]uint32, leaves)
	if me != 0 {
		s.Send(0, tagCount, cbuf)
		d, _, _ := s.Recv(tagExpect)
		for i := range expected {
			expected[i] = binary.LittleEndian.Uint32(d[4*i:])
		}
	} else {
		copy(expected, counts)
		for i := 1; i < pes; i++ {
			d, _, _ := s.Recv(tagCount)
			for j := range expected {
				expected[j] += binary.LittleEndian.Uint32(d[4*j:])
			}
		}
		for i, c := range expected {
			binary.LittleEndian.PutUint32(cbuf[4*i:], c)
		}
		s.Broadcast(tagExpect, cbuf)
	}
	s.Barrier() // end of the loosely synchronous phase

	// --- Phase 2 setup: anchor leaf chares on their owners -----------
	for node := firstLeaf; node < nodes; node++ {
		if owner(node) != me {
			continue
		}
		cmsg := make([]byte, 8)
		binary.LittleEndian.PutUint32(cmsg[0:], uint32(node))
		binary.LittleEndian.PutUint32(cmsg[4:], expected[node-firstLeaf])
		rt.CreateHere(leafType, cmsg)
	}
	s.Barrier() // all cells exist before particles fly

	// --- Phase 3 setup: one thread per owned internal node -----------
	var rootMass, rootCenter float64
	for node := 0; node < firstLeaf; node++ {
		if owner(node) != me {
			continue
		}
		ts.Create(func() {
			var agg multipole
			for c := 0; c < 2; c++ {
				d, _, _ := ts.Recv(tagNode + node)
				mp := decodeMP(d)
				agg.mass += mp.mass
				agg.wx += mp.wx
				agg.count += mp.count
			}
			if node == 0 {
				// Root: publish the global summary to every PE.
				for pe := 0; pe < pes; pe++ {
					ts.Send(pe, tagResult, encodeMP(agg))
				}
				return
			}
			parent := (node - 1) / 2
			ts.Send(owner(parent), tagNode+parent, encodeMP(agg))
		})
	}
	// A waiter thread per PE picks up the root's published result.
	ts.Create(func() {
		resData, _, _ := ts.Recv(tagResult)
		mp := decodeMP(resData)
		rootMass = mp.mass
		rootCenter = mp.wx / mp.mass
		if mp.count != pes*perPE {
			p.Printf("pe %d: LOST PARTICLES: %d of %d\n", me, mp.count, pes*perPE)
		}
	})

	// --- Phase 2: message-driven all-to-all particle transfer --------
	pbuf := make([]byte, 16)
	for i, x := range xs {
		leaf := leafOf(x, lo, hi)
		to := charm.ChareID{PE: owner(leaf), Local: leafChareLocal(leaf)}
		binary.LittleEndian.PutUint64(pbuf[0:], math.Float64bits(x))
		binary.LittleEndian.PutUint64(pbuf[8:], math.Float64bits(masses[i]))
		rt.Send(leafType, to, 0, pbuf)
		_ = i
	}

	// Drive everything: chares absorb particles, threads aggregate,
	// the scheduler interleaves all of it until local threads finish.
	ts.Run()

	if me == 0 {
		fmt.Printf("FMA skeleton: %d particles, %d leaf cells, %d tree threads\n",
			pes*perPE, leaves, firstLeaf)
		fmt.Printf("total mass %.4f, center of mass %.4f (domain [%.3f, %.3f])\n",
			rootMass, rootCenter, lo, hi)
	}
}
