package ahe

// Background randomizer pool. Even with the fixed-base tables, h^r is
// the dominant term of Encrypt and Rerandomize (~50 of the ~58
// division-free multiplications). The pool moves that work off the
// critical path: refiller goroutines precompute randomizers whenever
// the pool runs low, two per step — the two h^r chains run in lockstep
// on mont.mul2, which the IFMA kernel interleaves — and the hot path
// drains them with a lock-free Treiber-stack pop. A pooled randomizer
// is h^r*R mod n — a Montgomery-form elem, like a table entry — so a
// hit is one multiplication into the ciphertext, and an Encrypt that
// hits the pool costs that plus the at most 8 multiplications of g^m.
// The exponent r is dropped the moment h^r exists: nothing reads it
// again, and each one would strip the blinding off the ciphertext it
// ends up in.
//
// Misses pair and feed the pool. A chunk lane the pool cannot serve
// runs its h^r chain inline, beside the chunk's next miss on the same
// mul2; a miss with no partner left pairs with a spare chain started at
// R, and the spare — a fresh h^r*R, drawn like any other — is pushed
// here for a later lane to pop. A hit therefore counts a lane refreshed
// by a pooled randomizer, the refillers' or a spare, and a miss a lane
// whose chain ran inline; every refresh is exactly one of the two. A
// spare is used once, like every pooled randomizer: it is pushed once
// and popped once.
//
// Correctness is unaffected: r is drawn from crypto/rand exactly as the
// inline path draws it, and none of the protocol conformance suites
// depend on encryption randomness (share and fake randomness come from
// the deterministic Source streams, which the pool never touches). A
// drained-empty pool falls back to the inline fixed-base computation,
// so the pool is a pure latency optimization with no failure mode.
//
// Sizing. Capacity and refill concurrency both derive from GOMAXPROCS
// — the width the PEOS passes fan out at — so a multi-worker
// rerandomize loop does not drain the pool into the slow path on a
// machine with cores to spare.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// poolSizePerProc is the randomizer-pool capacity per consuming
// goroutine — deep enough to absorb a burst of a few hundred
// encryptions, small enough that a warm pool holds only a few hundred
// kilobytes of group elements.
const poolSizePerProc = 256

// maxPoolSize caps poolCapacity so a very wide host cannot ask for an
// unbounded precompute backlog.
const maxPoolSize = 4096

// poolCapacity returns the randomizer-pool capacity: poolSizePerProc
// randomizers per GOMAXPROCS (the PEOS call sites run that many
// concurrent encrypt/rerandomize goroutines), capped at maxPoolSize, so
// parallel rerandomize stays on the pooled fast path instead of
// draining into inline exponentiation.
func poolCapacity() int {
	size := poolSizePerProc * runtime.GOMAXPROCS(0)
	if size > maxPoolSize {
		size = maxPoolSize
	}
	return size
}

// poolRefillers returns the refill concurrency: half of GOMAXPROCS,
// clamped to [1, 4]. Refillers only burn CPU while the pool is below
// capacity — they park once it is full — so on a many-core host extra
// refillers shorten the drain-recovery window without competing with
// the consumers at steady state.
func poolRefillers() int {
	r := runtime.GOMAXPROCS(0) / 2
	if r < 1 {
		r = 1
	}
	if r > 4 {
		r = 4
	}
	return r
}

// hrNode is one precomputed randomizer, h^r*R mod n, on the stack.
type hrNode struct {
	hr   elem
	next *hrNode
}

// randPool is a lock-free stack of precomputed randomizers plus the
// refiller goroutines that keep it near capacity.
type randPool struct {
	head     atomic.Pointer[hrNode]
	size     atomic.Int64
	capacity int64
	wake     chan struct{}
	done     chan struct{}
	wg       sync.WaitGroup
}

// newRandPool starts a pool of capacity randomizers refilled by
// refillers goroutines (StartRandomizerPool passes poolCapacity and
// poolRefillers); fill computes two fresh h^r*R mod n using the calling
// refiller's scratch and must be safe for concurrent calls (crypto/rand
// and the immutable fixed-base tables are).
func newRandPool(capacity, refillers int, fill func(sc *Scratch) [2]elem) *randPool {
	p := &randPool{
		capacity: int64(capacity),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	p.wg.Add(refillers)
	for i := 0; i < refillers; i++ {
		go p.refill(fill)
	}
	return p
}

// refill tops the stack up to capacity, then sleeps until a drain
// signals it (or the pool stops). With several refillers the
// check-then-fill race can overshoot capacity by at most 2*refillers-1
// randomizers, and a spare pushed beside them by one per worker that
// missed — harmless.
func (p *randPool) refill(fill func(sc *Scratch) [2]elem) {
	defer p.wg.Done()
	var sc Scratch
	for {
		for p.size.Load() < p.capacity {
			select {
			case <-p.done:
				return
			default:
			}
			hr := fill(&sc)
			p.push(&hrNode{hr: hr[0]})
			p.push(&hrNode{hr: hr[1]})
		}
		select {
		case <-p.done:
			return
		case <-p.wake:
		}
	}
}

// push CAS-loops so the stack stays consistent across concurrent
// refillers, spare pushes and pops.
func (p *randPool) push(n *hrNode) {
	for {
		old := p.head.Load()
		n.next = old
		if p.head.CompareAndSwap(old, n) {
			p.size.Add(1)
			return
		}
	}
}

// get pops one precomputed randomizer, or returns nil when the pool is
// dry (the caller computes inline). Lock-free: a CAS retry loop with no
// mutex on the drain path. The Treiber ABA hazard does not apply —
// popped nodes are never pushed back (a spare is a new node), so a head
// pointer can never reappear. A popped node's next link is left as it is: a concurrent
// popper that loaded the same head may still be reading it (its CAS
// then fails), so clearing it here would be a data race.
func (p *randPool) get() elem {
	for {
		n := p.head.Load()
		if n == nil {
			p.nudge()
			return nil
		}
		if p.head.CompareAndSwap(n, n.next) {
			if p.size.Add(-1) < p.capacity/2 {
				p.nudge()
			}
			return n.hr
		}
	}
}

// nudge wakes a refiller without blocking. One token is enough: the
// woken refiller loops until the pool is full again, and any refiller
// that wakes spuriously just re-parks.
func (p *randPool) nudge() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// stop terminates the refillers and waits for all of them to exit.
func (p *randPool) stop() {
	close(p.done)
	p.wg.Wait()
}
