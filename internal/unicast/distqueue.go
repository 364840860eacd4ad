package unicast

import (
	"fmt"
	"math/bits"
)

// distQueue is a monotone radix queue of Dijkstra work items, each packed
// into one key uint64(dist)<<32 | node so that key order is (distance, ID)
// order. It is monotone: a key pushed must not be below the last key
// popped. Dijkstra keeps that because netsim clamps every link delay to at
// least 1 µs, so every relaxation offers a distance above the one being
// settled; push panics on a key below the last pop rather than let one
// out of order.
//
// Bucket 0 holds keys equal to last; bucket i > 0 holds keys whose highest
// bit differing from last is bit i-1. A pop that finds bucket 0 empty takes
// the lowest non-empty bucket, makes its minimum the new last and spreads
// the bucket's keys over lower buckets; every move lowers a key's bucket, so
// a key moves at most 64 times. Pops come out in sorted order, and since a
// node is pushed again only at a shorter distance no two keys are equal:
// nodes settle in exactly (distance, ID) order.
//
// A queue is solve scratch: its buckets keep their capacity across solves,
// and reset empties it for the next.
type distQueue struct {
	last    uint64
	n       int
	nonzero uint64 // bit i-1 set when bucket i > 0 holds keys
	buckets [65][]uint64
}

// distKey packs a Dijkstra work item.
func distKey(dist, node int32) uint64 { return uint64(dist)<<32 | uint64(uint32(node)) }

func (q *distQueue) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last, q.n, q.nonzero = 0, 0, 0
}

func (q *distQueue) len() int { return q.n }

func (q *distQueue) push(k uint64) {
	if k < q.last {
		panic(fmt.Sprintf("unicast: distance queue key %#x pushed below the last pop %#x", k, q.last))
	}
	i := bits.Len64(k ^ q.last)
	q.buckets[i] = append(q.buckets[i], k)
	if i > 0 {
		q.nonzero |= 1 << (i - 1)
	}
	q.n++
}

// pop removes and returns the least key; the queue must not be empty.
func (q *distQueue) pop() uint64 {
	if len(q.buckets[0]) == 0 {
		i := bits.TrailingZeros64(q.nonzero) + 1
		b := q.buckets[i]
		m := b[0]
		for _, k := range b[1:] {
			m = min(m, k)
		}
		q.last = m
		q.nonzero &^= 1 << (i - 1)
		for _, k := range b {
			j := bits.Len64(k ^ m)
			q.buckets[j] = append(q.buckets[j], k)
			if j > 0 {
				q.nonzero |= 1 << (j - 1)
			}
		}
		q.buckets[i] = b[:0]
	}
	b := q.buckets[0]
	k := b[len(b)-1]
	q.buckets[0] = b[:len(b)-1]
	q.n--
	return k
}
