package telemetry

import (
	"encoding/json"
	"io"
	"sort"

	"pim/internal/netsim"
)

// Sampler derives per-router time-series counter curves from the event
// stream: control messages sent, installed state entries, deliveries, and
// data-plane drops, bucketed by a fixed interval. It needs no polling — the
// curves are folded incrementally from events — so attaching a sampler never
// perturbs protocol timing.
//
// A sampler folds one stream: the bus of a sequential run, live, or the
// canonical captured stream of any run (script.Result.Events) replayed into a
// fresh bus with Bus.Replay. The two give byte-identical dumps, so how a run
// was sharded is capture's concern, never the sampler's.
type Sampler struct {
	interval netsim.Time
	routers  map[int]*samplerSeries
	last     int // highest bucket index seen
	// liveEntries folds EntryCreate/EntryExpire into the installed multicast
	// state population; the dump carries the peak.
	liveEntries   int64
	liveEntryPeak int64
	// LiveTimerPeak and Shards are not folded from events: whoever ran the
	// simulation copies the network's own counts here after the run
	// (netsim.Network.PeakLiveTimers, ShardLoads) and the dump carries them.
	LiveTimerPeak int64
	Shards        []netsim.ShardLoad
}

type samplerSeries struct {
	buckets map[int]*samplerBucket
}

type samplerBucket struct {
	ctrl       int64
	stateDelta int64
	delivered  int64
	drops      int64
	timerFires int64
}

// Sample is one point of a router's curve, serialized in the JSON dump.
type Sample struct {
	// TSec is the bucket's start time in simulated seconds.
	TSec float64 `json:"t_sec"`
	// Ctrl counts control messages sent in the bucket.
	Ctrl int64 `json:"ctrl"`
	// State is the installed entry count at the end of the bucket
	// (cumulative: creates minus expiries).
	State int64 `json:"state"`
	// Delivered counts host deliveries at the router's site.
	Delivered int64 `json:"delivered"`
	// Drops counts RPF-failure and no-state data drops.
	Drops int64 `json:"drops"`
	// TimerFires counts epoch-guarded soft-state timer bodies that executed
	// in the bucket — the refresh-load side of the §2.3 soft-state design.
	TimerFires int64 `json:"timer_fires"`
}

// RouterCurve is one router's full series.
type RouterCurve struct {
	Router  int      `json:"router"`
	Samples []Sample `json:"samples"`
}

// Dump is the JSON document Write produces.
type Dump struct {
	IntervalSec float64       `json:"interval_sec"`
	Routers     []RouterCurve `json:"routers"`
	// LiveTimerPeak is the scheduler's timer-population high-water mark over
	// the run — total armed timers, the backing store's population pressure —
	// exactly as netsim counted it (a sharded run reports the sum of its
	// shards' peaks). Zero (and omitted) when nobody recorded it.
	LiveTimerPeak int64 `json:"live_timer_peak,omitempty"`
	// LiveEntryPeak is the highest simultaneously-installed multicast state
	// entry count observed across the run, folded from the
	// EntryCreate/EntryExpire stream.
	LiveEntryPeak int64 `json:"live_entry_peak,omitempty"`
	// Shards carries the per-shard execution counters of a sharded run:
	// events executed, barrier-wait time, and lookahead stalls per shard.
	// Omitted for sequential runs.
	Shards []netsim.ShardLoad `json:"shards,omitempty"`
}

// NewSampler attaches a sampler with the given bucket interval to the bus.
func NewSampler(bus *Bus, interval netsim.Time) *Sampler {
	if interval <= 0 {
		interval = netsim.Second
	}
	s := &Sampler{interval: interval, routers: map[int]*samplerSeries{}}
	bus.Subscribe(s.observe)
	return s
}

func (s *Sampler) observe(ev Event) {
	var ctrl, stateDelta, delivered, drops, timerFires int64
	switch ev.Kind {
	case JoinPruneSend, GraftSend, PruneSend, RegisterSend, LSAFlood, MemberAdSend:
		ctrl = 1
	case EntryCreate:
		stateDelta = 1
		if s.liveEntries++; s.liveEntries > s.liveEntryPeak {
			s.liveEntryPeak = s.liveEntries
		}
	case EntryExpire:
		stateDelta = -1
		s.liveEntries--
	case Deliver:
		delivered = 1
	case RPFDrop, NoState:
		drops = 1
	case TimerFire:
		timerFires = 1
	default:
		return
	}
	rs := s.routers[ev.Router]
	if rs == nil {
		rs = &samplerSeries{buckets: map[int]*samplerBucket{}}
		s.routers[ev.Router] = rs
	}
	bi := int(ev.At / s.interval)
	if bi > s.last {
		s.last = bi
	}
	b := rs.buckets[bi]
	if b == nil {
		b = &samplerBucket{}
		rs.buckets[bi] = b
	}
	b.ctrl += ctrl
	b.stateDelta += stateDelta
	b.delivered += delivered
	b.drops += drops
	b.timerFires += timerFires
}

// Curves folds the observed events into the dump document: routers sorted by
// index, every bucket from 0 through the last observed one present (state is
// carried forward through empty buckets).
func (s *Sampler) Curves() Dump {
	d := Dump{
		IntervalSec:   float64(s.interval) / float64(netsim.Second),
		LiveTimerPeak: s.LiveTimerPeak,
		LiveEntryPeak: s.liveEntryPeak,
		Shards:        s.Shards,
	}
	idxs := make([]int, 0, len(s.routers))
	for i := range s.routers {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		rs := s.routers[i]
		curve := RouterCurve{Router: i, Samples: make([]Sample, 0, s.last+1)}
		var state int64
		for bi := 0; bi <= s.last; bi++ {
			sm := Sample{TSec: float64(bi) * d.IntervalSec, State: state}
			if b := rs.buckets[bi]; b != nil {
				state += b.stateDelta
				sm.State = state
				sm.Ctrl = b.ctrl
				sm.Delivered = b.delivered
				sm.Drops = b.drops
				sm.TimerFires = b.timerFires
			}
			curve.Samples = append(curve.Samples, sm)
		}
		d.Routers = append(d.Routers, curve)
	}
	return d
}

// WriteJSON writes the curves as indented JSON. The output is deterministic
// for a deterministic run, so it is suitable for golden-file tests and the
// cmd/pimbench ledgers.
func (s *Sampler) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Curves())
}
