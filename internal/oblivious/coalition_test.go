package oblivious

import (
	"math/bits"
	"testing"
)

// TestCoalitionBlindExactlyAtMostRMinusHiders enumerates every coalition
// of shufflers for r <= 7. Every hider of a round knows that round's
// permutation, so a coalition learns a round's permutation when it
// holds one of its hiders, and is blind to the composite permutation
// exactly when some round of Combinations(r, Hiders(r)) avoids it. That
// holds exactly for the coalitions of at most r - Hiders(r) =
// ceil(r/2) - 1 members: against ceil(r/2) or more shufflers only the
// local randomizer's epsL is left, and at r = 2 one shuffler suffices.
func TestCoalitionBlindExactlyAtMostRMinusHiders(t *testing.T) {
	for r := 2; r <= 7; r++ {
		h := Hiders(r)
		if r-h != (r+1)/2-1 {
			t.Errorf("r=%d: r - Hiders(r) = %d, want ceil(r/2) - 1 = %d", r, r-h, (r+1)/2-1)
		}
		var rounds []uint
		for _, hiders := range Combinations(r, h) {
			var mask uint
			for _, j := range hiders {
				mask |= 1 << j
			}
			rounds = append(rounds, mask)
		}
		for coalition := uint(0); coalition < 1<<r; coalition++ {
			blind := false
			for _, round := range rounds {
				if round&coalition == 0 {
					blind = true
					break
				}
			}
			if small := bits.OnesCount(coalition) <= r-h; blind != small {
				t.Errorf("r=%d: coalition %0*b of %d shufflers blind=%v, want %v", r, r, coalition, bits.OnesCount(coalition), blind, small)
			}
		}
	}
}
