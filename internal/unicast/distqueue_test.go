package unicast

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestDistQueueOrder holds the radix queue to a sorted model over random
// monotone push/pop sequences: small steps, keys that differ only in node
// ID, equal-distance batches of hundreds, and jumps toward the top of the
// 31-bit distance range. One queue serves every seed through reset, as one
// serves every solve. Every pop must return the model's least key. A push
// below the last pop must panic.
func TestDistQueueOrder(t *testing.T) {
	var q distQueue
	for seed := int64(0); seed < 32; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q.reset()
		var model []uint64 // sorted
		var last uint64
		push := func(k uint64) {
			q.push(k)
			pos, _ := slices.BinarySearch(model, k)
			model = slices.Insert(model, pos, k)
		}
		pop := func(step int) {
			got, want := q.pop(), model[0]
			model = model[1:]
			if got != want {
				t.Fatalf("seed %d step %d: popped %#x, model's least is %#x", seed, step, got, want)
			}
			last = got
		}
		// keyAbove draws a key ≥ last: the same distance with a node ID at
		// or above last's, or a distance 1..span beyond last's. Distances
		// stay under 2^32 and node IDs under 2^31, so no key wraps.
		keyAbove := func(span uint64) uint64 {
			d, v := last>>32, last&(1<<32-1)
			if rng.Intn(3) == 0 {
				return d<<32 | (v + uint64(rng.Intn(1<<20)))
			}
			return (d+1+rng.Uint64()%span)<<32 | uint64(rng.Intn(1<<20))
		}
		for step := 0; step < 1000; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				push(keyAbove(1 + uint64(rng.Intn(20))))
			case r < 5:
				// A batch at one distance, node IDs drawn without
				// repetition: its lowest keys differ only in node ID.
				d := last>>32 + 1 + uint64(rng.Intn(3))
				for _, v := range rng.Perm(100 + rng.Intn(400)) {
					push(d<<32 | uint64(v))
				}
			case r < 6:
				// A jump of up to a quarter of the way to 2^31.
				push(keyAbove(1 + (1<<31-min(last>>32, 1<<31))/4))
			default:
				for i := rng.Intn(128); i >= 0 && len(model) > 0; i-- {
					pop(step)
				}
			}
			if q.len() != len(model) {
				t.Fatalf("seed %d step %d: len %d, model holds %d", seed, step, q.len(), len(model))
			}
		}
		for step := 0; len(model) > 0; step++ {
			pop(-step)
		}
		if last == 0 {
			continue
		}
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			q.push(last - 1)
			return ""
		}()
		if !strings.Contains(msg, "below the last pop") {
			t.Fatalf("seed %d: push of %#x after popping %#x: panic %q, want a refusal", seed, last-1, last, msg)
		}
	}
}
