package dvmrp

import (
	"pim/internal/addr"
	"pim/internal/engine"
	"pim/internal/metrics"
	"pim/internal/mfib"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/telemetry"
	"pim/internal/unicast"
)

// Config carries the protocol parameters.
type Config struct {
	// PruneLifetime is the lifetime this router's prunes toward a source
	// carry: upstream grows the branch back after it (the paper's
	// periodic-rebroadcast cost). A received prune is held for the
	// lifetime it carries.
	PruneLifetime netsim.Time
	// ProbeInterval paces neighbor probes; an interface with no probing
	// neighbor is a leaf subnet subject to truncated broadcast.
	ProbeInterval netsim.Time
	// GraftRetry is the initial graft retransmission interval: grafts are
	// acknowledged, and an unacked graft is re-sent with doubling backoff
	// (capped at 8x) until the ack arrives or the branch stops wanting
	// traffic.
	GraftRetry netsim.Time
	// Telemetry, when non-nil, receives structured events for every state
	// transition (see internal/telemetry).
	Telemetry *telemetry.Bus
}

// Defaults. RFC 1075 uses ~2 hours for prunes; experiments scale it down so
// the grow-back behaviour is observable (configurable per run).
const (
	DefaultPruneLifetime = 120 * netsim.Second
	DefaultProbeInterval = 30 * netsim.Second
	DefaultGraftRetry    = 3 * netsim.Second
)

// Router is one DVMRP router instance: the shared flood-and-prune machine
// (engine.Flood — data plane, membership, prune and graft state) speaking
// the DVMRP wire format of msg.go.
type Router struct {
	engine.Flood
	Cfg Config
}

// codec spells the machine's upstream messages as DVMRP prunes and grafts,
// both unicast to the upstream neighbor.
var codec = engine.Codec{
	Proto: packet.ProtoDVMRP,
	Prune: func(b []byte, s, g, to addr.IP, holdSec uint16) ([]byte, addr.IP) {
		m := Message{Type: TypePrune, Source: s, Group: g, Lifetime: holdSec}
		return m.MarshalTo(b), to
	},
	Graft: func(b []byte, e *mfib.Entry) []byte {
		m := Message{Type: TypeGraft, Source: e.Key.Source, Group: e.Key.Group}
		return m.MarshalTo(b)
	},
}

// New builds a DVMRP router.
func New(nd *netsim.Node, cfg Config, uni unicast.Router) *Router {
	if cfg.PruneLifetime == 0 {
		cfg.PruneLifetime = DefaultPruneLifetime
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.GraftRetry == 0 {
		cfg.GraftRetry = DefaultGraftRetry
	}
	r := &Router{
		Flood: engine.NewFlood(engine.NewChassis(nd, uni, cfg.Telemetry), codec, cfg.PruneLifetime, cfg.GraftRetry),
		Cfg:   cfg,
	}
	r.Handle(packet.ProtoDVMRP, r.handleCtrl)
	r.Handle(packet.ProtoUDP, func(in *netsim.Iface, pkt *packet.Packet) { r.HandleData(in, pkt) })
	return r
}

// Start registers handlers and begins probing.
func (r *Router) Start() {
	r.Flood.Start(func() {
		r.Every(0, r.Cfg.ProbeInterval, func() {
			r.Nbrs.Expire(r.Now(), nil)
			r.sendProbes()
		})
	})
}

// Stop detaches the router and discards all soft state.
func (r *Router) Stop() { r.Chassis.Stop(r.StateCount(), r.Reset) }

// Restart brings a stopped router back empty; broadcast-and-prune state
// rebuilds from the data packets themselves.
func (r *Router) Restart() {
	r.Stop()
	r.Start()
}

func (r *Router) sendProbes() {
	m := Message{Type: TypeProbe}
	r.Enc.Buf = m.MarshalTo(r.Enc.Buf[:0])
	for _, ifc := range r.Node.Ifaces {
		if r.Eligible(ifc) {
			r.Node.Send(ifc, r.Enc.Packet(ifc.Addr, addr.AllRouters, packet.ProtoDVMRP, 1), 0)
		}
	}
}

func (r *Router) handleCtrl(in *netsim.Iface, pkt *packet.Packet) {
	var m Message
	if err := UnmarshalInto(&m, pkt.Payload); err != nil {
		return
	}
	switch m.Type {
	case TypeProbe:
		r.Heard(in, pkt.Src, 3*r.Cfg.ProbeInterval)
	case TypePrune:
		// Members still present on that subnet: ignore a stray prune.
		if e := r.MFIB.SG(m.Source, m.Group); e != nil && !r.Local.Has(in.Index, m.Group) {
			r.Prune(e, in, netsim.Time(m.Lifetime)*netsim.Second)
		}
	case TypeGraft:
		ack := Message{Type: TypeGraftAck, Source: m.Source, Group: m.Group}
		r.Enc.Buf = ack.MarshalTo(r.Enc.Buf[:0])
		r.Node.Send(in, r.Enc.Packet(in.Addr, pkt.Src, packet.ProtoDVMRP, 1), pkt.Src)
		r.Metrics.Inc(metrics.CtrlGraft)
		r.GraftFrom(in, m.Source, m.Group)
	case TypeGraftAck:
		r.GraftAcked(m.Source, m.Group)
	}
}
