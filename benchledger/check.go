package main

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"streamcover"
)

// The checker validates every result against computations made apart from
// the solver: coverage is recomputed with the benchmark's own bit array from
// the instance's sets, and the remaining checks are the method's contract
// (Theorem 2: at most 2α+1 passes, an (α+ε)-approximation, at least the
// n-word uncovered bitmap of space). Nothing is compared with a stored copy
// of an earlier run's output.

// bitArray is a plain word-packed membership array over [0, n).
type bitArray []uint64

func newBitArray(n int) bitArray { return make(bitArray, (n+63)/64) }

func (b bitArray) set(e int32) { b[e>>6] |= 1 << (uint(e) & 63) }

func (b bitArray) count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// coverage returns how many elements of [0, n) the chosen sets cover,
// rejecting out-of-range or repeated set indices.
func coverage(inst *streamcover.Instance, chosen []int) (int, error) {
	seen := make(map[int]bool, len(chosen))
	b := newBitArray(inst.N)
	for _, id := range chosen {
		if id < 0 || id >= inst.M() {
			return 0, fmt.Errorf("set index %d out of range [0,%d)", id, inst.M())
		}
		if seen[id] {
			return 0, fmt.Errorf("set index %d chosen twice", id)
		}
		seen[id] = true
		for _, e := range inst.Set(id) {
			if e < 0 || int(e) >= inst.N {
				return 0, fmt.Errorf("set %d holds element %d outside [0,%d)", id, e, inst.N)
			}
			b.set(e)
		}
	}
	return b.count(), nil
}

// checkCover verifies that cover covers the whole universe.
func checkCover(inst *streamcover.Instance, cover []int) error {
	got, err := coverage(inst, cover)
	if err != nil {
		return err
	}
	if got != inst.N {
		return fmt.Errorf("cover of %d sets leaves %d of %d elements uncovered", len(cover), inst.N-got, inst.N)
	}
	return nil
}

// setCoverContract is what a streaming set cover result must satisfy on an
// instance whose planted cover has k sets (so OPT ≤ k, known apart from the
// solver once checkCover accepts the planted sets).
type setCoverContract struct {
	alpha int
	eps   float64
	k     int
}

// maxCoverSize is the Theorem 2 size bound (α+ε)·õpt, with the guess grid's
// (1+ε) rounding of õpt above OPT ≤ k.
func (c setCoverContract) maxCoverSize() int {
	return int(math.Floor((float64(c.alpha) + c.eps) * (1 + c.eps) * float64(c.k)))
}

// check verifies one set cover result.
func (c setCoverContract) check(inst *streamcover.Instance, r streamcover.SetCoverResult) error {
	if err := checkCover(inst, r.Cover); err != nil {
		return err
	}
	if len(r.Cover) > c.maxCoverSize() {
		return fmt.Errorf("cover has %d sets, above (α+ε)(1+ε)k = %d", len(r.Cover), c.maxCoverSize())
	}
	if r.Passes < 1 || r.Passes > 2*c.alpha+1 {
		return fmt.Errorf("%d passes, outside [1, 2α+1 = %d]", r.Passes, 2*c.alpha+1)
	}
	if r.SpaceWords < inst.N {
		return fmt.Errorf("peak space %d words, below the n = %d words of the uncovered bitmap", r.SpaceWords, inst.N)
	}
	return nil
}

// checkMaxCover verifies one max k-coverage result: at most k distinct sets,
// a recomputed coverage equal to the reported one, and a single pass.
func checkMaxCover(inst *streamcover.Instance, k int, r streamcover.MaxCoverageResult) error {
	if len(r.Chosen) > k {
		return fmt.Errorf("chose %d sets, above k = %d", len(r.Chosen), k)
	}
	got, err := coverage(inst, r.Chosen)
	if err != nil {
		return err
	}
	if got != r.Covered {
		return fmt.Errorf("reported coverage %d, recomputed %d", r.Covered, got)
	}
	if r.Passes != 1 {
		return fmt.Errorf("%d passes, want 1", r.Passes)
	}
	if r.SpaceWords < 1 {
		return fmt.Errorf("reported space %d words", r.SpaceWords)
	}
	return nil
}

// sameSetCover reports a difference between a result and its reference
// (the in-process library call on the same inputs).
func sameSetCover(got, want streamcover.SetCoverResult) error {
	if !slices.Equal(got.Cover, want.Cover) || got.Guess != want.Guess ||
		got.Passes != want.Passes || got.SpaceWords != want.SpaceWords {
		return fmt.Errorf("result %v %v differs from the in-process reference %v %v",
			got, got.Cover, want, want.Cover)
	}
	return nil
}

// sameMaxCover is sameSetCover for max k-coverage.
func sameMaxCover(got, want streamcover.MaxCoverageResult) error {
	if !slices.Equal(got.Chosen, want.Chosen) || got.Covered != want.Covered ||
		got.Passes != want.Passes || got.SpaceWords != want.SpaceWords {
		return fmt.Errorf("result %v %v differs from the in-process reference %v %v",
			got, got.Chosen, want, want.Chosen)
	}
	return nil
}
