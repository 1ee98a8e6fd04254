package rng_test

import (
	"slices"
	"testing"

	"redundancy/internal/rng"
	"redundancy/internal/sched"
)

// TestShuffleSliceMatchesShuffle: the in-place generic shuffle deals, for
// every seed and length, the permutation the closure Shuffle deals, and
// leaves the source where Shuffle leaves it, for the element types the
// tail engine (int32) and the scheduler (sched.Slot) shuffle.
func TestShuffleSliceMatchesShuffle(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17, 1000} {
		for seed := uint64(1); seed <= 5; seed++ {
			ids := make([]int32, n)
			slots := make([]sched.Slot, n)
			for i := range n {
				ids[i] = int32(i)
				s, ok := sched.Pack(sched.Assignment{TaskID: i, Copy: i % 3, Ringer: i%7 == 0})
				if !ok {
					t.Fatalf("copy %d does not pack", i)
				}
				slots[i] = s
			}
			checkShuffle(t, "int32", seed, ids)
			checkShuffle(t, "sched.Slot", seed, slots)
		}
	}
}

func checkShuffle[T comparable](t *testing.T, name string, seed uint64, a []T) {
	t.Helper()
	want := slices.Clone(a)
	ref := rng.New(seed)
	ref.Shuffle(len(want), func(i, j int) { want[i], want[j] = want[j], want[i] })
	got := slices.Clone(a)
	r := rng.New(seed)
	rng.ShuffleSlice(r, got)
	if !slices.Equal(got, want) {
		t.Errorf("%s seed %d n %d: ShuffleSlice dealt a different permutation than Shuffle", name, seed, len(a))
	}
	if r.Uint64() != ref.Uint64() {
		t.Errorf("%s seed %d n %d: ShuffleSlice drew a different number of values than Shuffle", name, seed, len(a))
	}
}
