package cluster

import (
	"errors"
	"fmt"
	"time"
)

// awaitPeers blocks until every shuffler's slot of the peer table
// holds a link and returns a snapshot of it.
func (a *Analyzer) awaitPeers() ([]*link, error) {
	var peers []*link
	missing := 0
	err := await(func() (bool, error) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.closed {
			return false, errNodeClosed
		}
		peers = append(peers[:0], a.peers...)
		missing = 0
		for _, l := range peers {
			if l == nil {
				missing++
			}
		}
		return missing == 0, nil
	}, a.changed, nil, a.cfg.CollectTimeout)
	if errors.Is(err, errAwaitTimeout) {
		err = fmt.Errorf("cluster: %d shuffler link(s) never connected", missing)
	}
	if err != nil {
		return nil, err
	}
	return peers, nil
}

// Collect drives one collection round over n user reports: broadcast
// the seal, await every shuffler's post-shuffle vector, reconstruct
// (decrypting the ciphertext column in parallel), decode, and fold the
// round's support counts into the cumulative state — durably, when
// configured. The caller must have flushed the clients' shares for the
// round before sealing it; the shufflers wait out in-flight frames,
// but a share that was never sent fails the round at their
// SealTimeout.
//
// A failed attempt (a shuffler died, reset, failed, timed out) is
// aborted everywhere and the round re-runs under a fresh generation
// after a jittered backoff, up to retryAttempts attempts: a dead link is
// dropped so its shuffler can re-dial, the live ones get an abort
// frame, and buffered client shares plus cached fake shares make the
// re-run bit-identical to a round that never failed. The privacy ledger
// pays for the collection id exactly once (on the first attempt that
// reaches the seal broadcast), and the durable seal happens only for
// the attempt that succeeds.
//
// A Collect error means the round is lost across all attempts: nothing
// was aggregated or charged durably (the in-memory payment, the bound
// on what the seal broadcasts disclosed, stands — and a later Collect
// of the same collection id does not pay for it again), and the clean
// way out is to Close the analyzer — its goodbye frame ends every
// surviving shuffler's Run — and start a fresh cluster, a durable
// analyzer recovering its sealed history.
// TestClusterKilledShufflerFailsCleanly exercises exactly this path.
func (a *Analyzer) Collect(n int) (Collection, error) {
	if n <= 0 {
		return Collection{}, errors.New("cluster: Collect needs n > 0")
	}
	if a.isClosed() {
		return Collection{}, errors.New("cluster: analyzer closed")
	}
	a.stateMu.Lock()
	collection := uint32(a.collections)
	a.stateMu.Unlock()
	var lastErr error
	for try := 0; try < retryAttempts; try++ {
		if try > 0 {
			time.Sleep(backoff(try - 1))
			if a.isClosed() {
				return Collection{}, errors.New("cluster: analyzer closed")
			}
		}
		peers, err := a.awaitPeers()
		if err != nil {
			if a.isClosed() {
				return Collection{}, err
			}
			lastErr = err
			continue
		}
		// Pay only once every shuffler is reachable. Paying through the
		// collection id costs nothing once it is paid, so the round
		// pays once however many attempts it takes: the payment bounds
		// disclosure, and every attempt seals the same report multiset
		// (the payment still precedes the first seal broadcast, the
		// first actual disclosure).
		if a.cfg.Ledger != nil {
			if err := a.cfg.Ledger.PayThrough(int(collection)); err != nil {
				return Collection{}, fmt.Errorf("cluster: charging collection %d: %w", collection, err)
			}
		}
		g := gen{col: collection, att: a.nextAttempt()}
		words, err := a.attemptRound(peers, g, n)
		if err != nil {
			lastErr = fmt.Errorf("cluster: collection %d attempt %d: %w", g.col, g.att, err)
			// Abort the attempt at every shuffler so its goroutines cancel
			// promptly; a link that cannot take the abort is dropped, and
			// its shuffler redials.
			a.broadcast(peers, tagAbort, prefixed(g, nil))
			continue
		}
		col, err := a.seal(collection, n, words)
		if err != nil {
			// A durable-store failure is not retryable: the round's
			// exchange succeeded, the disk did not.
			return Collection{}, err
		}
		col.Attempts = try + 1
		// The durable seal above is the round's one commit point; the done
		// frame only lets shufflers prune the collection's buffered
		// shares, cached fakes and parked mesh connections. Best-effort:
		// a shuffler that misses it prunes on the next seal instead.
		a.broadcast(peers, tagDone, donePayload(collection))
		return col, nil
	}
	return Collection{}, fmt.Errorf("cluster: collection %d failed after %d attempt(s): %w", collection, retryAttempts, lastErr)
}

// nextAttempt allocates a generation's attempt number. Monotonic
// across the analyzer's lifetime — never per collection — so aborted
// attempts can never collide with their successors.
func (a *Analyzer) nextAttempt() uint32 {
	a.stateMu.Lock()
	defer a.stateMu.Unlock()
	att := a.attempts
	a.attempts++
	return att
}

// attemptRound runs one generation of a collection: the seal broadcast,
// then every shuffler's post-shuffle vector, revealed into the round's
// word vector. A link the seal cannot be written to is closed.
func (a *Analyzer) attemptRound(peers []*link, g gen, n int) ([]uint64, error) {
	total := n + a.cfg.NR
	a.mu.Lock()
	a.words = max(a.words, total)
	a.mu.Unlock()
	seal := sealPayload(g, n)
	for j, l := range peers {
		if err := l.send(tagSeal, seal); err != nil {
			l.close()
			return nil, fmt.Errorf("sealing with shuffler %d: %w", j, err)
		}
	}
	return a.awaitVectors(peers, g, total)
}

// broadcast sends one frame to every shuffler. A link that cannot take
// the frame is dead: it is closed and its slot cleared (if still
// current), so awaitPeers waits for the shuffler to redial.
func (a *Analyzer) broadcast(peers []*link, tag uint32, payload []byte) {
	for p, l := range peers {
		if l.send(tag, payload) == nil {
			continue
		}
		a.mu.Lock()
		if a.peers[p] == l {
			a.peers[p] = nil
		}
		a.mu.Unlock()
		l.close()
	}
}
