package netsim

// Pooled transmit frames: the steady-state control plane of every protocol
// here is periodic soft-state refresh, and a closure-based delivery would pay
// one closure plus one marshal buffer plus one decoded Packet per link
// crossing. A frame makes the whole crossing a single reusable object:
// Node.Send marshals into a recycled buffer, the delivery event carries the
// frame by pointer (no closure), the arrival decodes into the firing
// scheduler's header scratch (rxScratch), and after the synchronous fan-out
// completes the frame returns to the scheduler's free list.
//
// Ownership contract (DESIGN.md §13): everything a handler receives — the
// *packet.Packet, its Payload, and any decoded view aliasing the Payload —
// is BORROWED for the duration of the HandlePacket call. A handler that
// retains any of it past return must copy. The poison-on-release debug mode
// (SetPoisonFrames) overwrites released frame bytes with 0xDB and zeroes the
// scheduler's header scratch after each fan-out, so a retained alias misreads
// loudly instead of silently going stale; the internal/script tests run every
// scenario under it.
//
// Pools are per-Scheduler, and a scheduler runs on one goroutine, so the
// free list needs no locking.

import (
	"sync/atomic"

	"pim/internal/addr"
	"pim/internal/packet"
)

// poisonOn enables poison-on-release: frames are filled with poisonByte as
// they return to the free list, so any handler that retained a borrowed
// alias reads garbage deterministically instead of stale-but-plausible data.
var poisonOn atomic.Bool

// poisonByte fills released frame buffers in poison mode.
const poisonByte = 0xDB

// PoisonFrames reports whether poison-on-release is active.
func PoisonFrames() bool { return poisonOn.Load() }

// SetPoisonFrames enables or disables poison-on-release, returning the
// previous setting. Poisoning is a debug mode: it turns a violation of the
// borrowed-frame contract into deterministic garbage (checksum failures,
// impossible fields) at the point of misuse.
func SetPoisonFrames(on bool) (prev bool) { return poisonOn.Swap(on) }

// frame is one in-flight link crossing: the marshalled bytes plus the
// delivery route, owned by exactly one scheduler's free list when idle and
// by the event queue while in flight. A message flood puts tens of thousands
// in flight at once, so it carries nothing a delivery can derive (the link is
// from.Link, set once at attachment; the network is from.Node.Net) or decode
// (the header lives in rxScratch).
type frame struct {
	from    *Iface
	nextHop addr.IP
	buf     []byte
	// next links the scheduler free list.
	next *frame
}

// rxScratch is the receive side of one crossing, owned by the scheduler that
// fires it: hdr is the single per-crossing decode, rcv the per-receiver
// header view handed to handlers (each station gets a fresh copy of hdr in
// rcv, so one handler mutating its view cannot leak into the next station's).
// Fan-outs never nest on one scheduler, so one scratch serves every delivery
// and the warm path allocates nothing.
type rxScratch struct {
	hdr, rcv packet.Packet
}

// framePool is a scheduler-private free list. A scheduler runs on one
// goroutine, so no locking.
type framePool struct {
	free *frame
}

func (p *framePool) get() *frame {
	f := p.free
	if f == nil {
		return new(frame)
	}
	p.free = f.next
	f.next = nil
	return f
}

func (p *framePool) put(f *frame) {
	if poisonOn.Load() {
		for i := range f.buf {
			f.buf[i] = poisonByte
		}
	}
	f.next = p.free
	p.free = f
}
