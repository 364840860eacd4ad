package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"pim/internal/addr"
	"pim/internal/faultsearch"
	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/script"
	"pim/internal/telemetry"
)

// The recovery experiment measures the paper's robustness claim (§2, §3.8)
// head on: all protocol state is timer-refreshed soft state, so the network
// should converge back to correct delivery after lost control messages, link
// failures, and router crashes — with no reliability machinery beyond
// periodic refresh (plus the few acknowledged messages: dense-mode grafts
// and CBT's join handshake).
//
// Every protocol goes through a fixed fault matrix on a small diamond
// topology with a bypass path. A cell is a .pim scenario (RecoveryScript)
// run by the one fault-run harness, script.RunWith, and each of its metrics
// is a fold over the run's canonical captured event stream:
//
//   - recovery time: the gap between the fault (or the membership change it
//     interferes with) and the first packet delivered past it, detected by a
//     telemetry.ConvergenceProbe the stream is replayed into;
//   - control messages spent converging (protocol control sends in that
//     window, tallied from the stream);
//   - residual state: entries still installed at the end of the run beyond
//     the pre-fault baseline — stale state a soft-state protocol must shed
//     (the one metric the stream cannot carry: script.Result.State);
//   - tree quiet time: how long the multicast forwarding state had been
//     mutation-free when the run ended (the probe's stabilization signal).
//
// Every cell is one isolated, seeded simulation, and fault injection is
// deterministic (internal/faults), so the matrix is reproducible across any
// Workers setting; each cell's outcome, delivery-trace
// fingerprint included, is pinned by testdata/recovery_matrix.golden. With
// Checked set, every cell additionally runs under the online §3.8 invariant
// checker and surfaces any violations.

// Recovery fault kinds.
const (
	FaultLoss0  = "loss0"  // control cell: membership change, no loss
	FaultLoss5  = "loss5"  // 5% control-plane loss network-wide
	FaultLoss20 = "loss20" // 20% control-plane loss network-wide
	FaultFlap   = "flap"   // the tree's transit link flaps down/up
	FaultCrash  = "crash"  // mid-tree router fail-stops, later restarts
)

// RecoveryFaults lists the fault matrix columns in report order.
func RecoveryFaults() []string {
	return []string{FaultLoss0, FaultLoss5, FaultLoss20, FaultFlap, FaultCrash}
}

// RecoveryProtocols lists the matrix rows: every protocol, sparse and dense.
func RecoveryProtocols() []Protocol {
	return []Protocol{PIMSM, PIMDM, DVMRP, CBT, MOSPF}
}

// RecoveryConfig parameterizes the fault-recovery matrix.
type RecoveryConfig struct {
	Seed int64
	// Senders emit one packet per PacketInterval for the whole run.
	PacketInterval netsim.Time
	// FaultAt is when the fault hits steady state; RestartAt revives the
	// crashed router; JoinAt is when the late receiver joins under loss;
	// End bounds the run.
	FaultAt   netsim.Time
	RestartAt netsim.Time
	JoinAt    netsim.Time
	End       netsim.Time
	// Workers bounds the pool running matrix cells; every cell is an
	// isolated simulation seeded from Seed and the cell index, so results
	// are identical for every value.
	Workers int
	// Checked attaches the online invariant checker to every cell; any
	// §3.8 contract violation surfaces on the cell.
	Checked bool
}

// check holds the config to what a cell script can express, naming the field
// at fault: the sender's count= divides by PacketInterval, the pre-fault state
// sample sits one second before FaultAt and after the 2 s deployment settle,
// fault clauses start and stop on whole seconds, and the restart and the late
// join must fall inside the run, after the fault.
func (cfg RecoveryConfig) check() error {
	switch {
	case cfg.PacketInterval <= 0:
		return errors.New("experiments: RecoveryConfig.PacketInterval must be positive")
	case cfg.FaultAt < 3*netsim.Second:
		return errors.New("experiments: RecoveryConfig.FaultAt must be at least 3s")
	case cfg.FaultAt%netsim.Second != 0:
		return errors.New("experiments: RecoveryConfig.FaultAt must be a whole second")
	case cfg.RestartAt%netsim.Second != 0:
		return errors.New("experiments: RecoveryConfig.RestartAt must be a whole second")
	case cfg.RestartAt <= cfg.FaultAt || cfg.RestartAt >= cfg.End:
		return errors.New("experiments: RecoveryConfig.RestartAt must lie between FaultAt and End")
	case cfg.JoinAt <= cfg.FaultAt || cfg.JoinAt >= cfg.End:
		return errors.New("experiments: RecoveryConfig.JoinAt must lie between FaultAt and End")
	}
	return nil
}

// DefaultRecovery returns the ledger workload.
func DefaultRecovery() RecoveryConfig {
	return RecoveryConfig{
		Seed:           42,
		PacketInterval: 2 * netsim.Second,
		FaultAt:        60 * netsim.Second,
		RestartAt:      90 * netsim.Second,
		JoinAt:         70 * netsim.Second,
		End:            240 * netsim.Second,
	}
}

// SmokeRecovery returns the CI-sized workload: the same fault matrix
// compressed to two simulated minutes — long enough for every protocol to
// converge past each fault, short enough for bench-smoke.
func SmokeRecovery() RecoveryConfig {
	return RecoveryConfig{
		Seed:           42,
		PacketInterval: 2 * netsim.Second,
		FaultAt:        30 * netsim.Second,
		RestartAt:      45 * netsim.Second,
		JoinAt:         35 * netsim.Second,
		End:            120 * netsim.Second,
	}
}

// RecoveryCell is one (protocol, fault) outcome.
type RecoveryCell struct {
	Protocol Protocol `json:"protocol"`
	Fault    string   `json:"fault"`
	// Recovered reports whether delivery resumed before End; RecoverySec is
	// the simulated seconds from the recovery window's start (the fault, or
	// the late join it interferes with) to the first delivery past it.
	Recovered   bool    `json:"recovered"`
	RecoverySec float64 `json:"recovery_sec"`
	// CtrlMessages counts protocol control-message sends (join/prune,
	// graft, prune, register, LSA flood) in the recovery window.
	CtrlMessages int64 `json:"ctrl_messages"`
	// ResidualState is TotalState(End) − TotalState(just before the fault):
	// state beyond the pre-fault baseline still installed at the end.
	ResidualState int `json:"residual_state"`
	// Delivered counts member-host deliveries over the whole run.
	Delivered int `json:"delivered"`
	// TreeQuietSec is how long the forwarding state had gone without a
	// mutation (entry create/expire, iif change) when the run ended — the
	// convergence probe's tree-stabilization measure.
	TreeQuietSec float64 `json:"tree_quiet_sec"`
	// TraceHash is the FNV-64a of the canonical delivery trace (every member
	// delivery's arrival instant, site, source and origination stamp, in
	// order) — the cell's absolute behavioural fingerprint, pinned by
	// testdata/recovery_matrix.golden.
	TraceHash string `json:"trace_fnv64a"`
	// Violations lists online invariant-checker findings (Checked runs
	// only; empty means the cell upheld every §3.8 contract).
	Violations []string `json:"violations,omitempty"`
}

// RecoveryResult is the full matrix.
type RecoveryResult struct {
	Cells []RecoveryCell `json:"cells"`
	// AllRecovered reports whether every cell saw delivery resume.
	AllRecovered bool `json:"all_recovered"`
}

// DeliveryEvent is one packet arrival at a member host. Sent carries the
// origination timestamp stamped into the payload, so the tuple pins source,
// path delay, and ordering.
type DeliveryEvent struct {
	At   netsim.Time
	Host int
	Src  addr.IP
	Sent netsim.Time
}

// RunRecovery executes the full protocol × fault matrix. The cells are
// isolated simulations and fan across cfg.Workers. A config no cell script
// can express (RecoveryConfig.check) is refused before any cell runs.
func RunRecovery(cfg RecoveryConfig) (RecoveryResult, error) {
	if err := cfg.check(); err != nil {
		return RecoveryResult{}, err
	}
	protos := RecoveryProtocols()
	kinds := RecoveryFaults()
	res := RecoveryResult{
		Cells:        make([]RecoveryCell, len(protos)*len(kinds)),
		AllRecovered: true,
	}
	parallel.For(len(res.Cells), cfg.Workers, func(i int) {
		proto, kind := protos[i/len(kinds)], kinds[i%len(kinds)]
		res.Cells[i], _ = runRecoveryOnce(cfg, proto, kind, parallel.DeriveSeed(cfg.Seed, int64(i)))
	})
	for _, c := range res.Cells {
		if !c.Recovered {
			res.AllRecovered = false
		}
	}
	return res, nil
}

// traceHash fingerprints a canonical delivery trace: an order-sensitive
// FNV-64a over every field of every event.
func traceHash(trace []DeliveryEvent) string {
	h := fnv.New64a()
	var buf [4 * 8]byte
	for _, ev := range trace {
		for i, f := range [...]uint64{uint64(ev.At), uint64(ev.Host), uint64(ev.Src), uint64(ev.Sent)} {
			binary.LittleEndian.PutUint64(buf[i*8:], f)
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Receiver sites by attached-router index, the key Deliver telemetry events
// carry: A behind r3 (joins early), B behind r4 (joins late under loss).
const (
	recvARouter = 3
	recvBRouter = 4
)

// settle is the script clock when the first `at` is read: the `protocol`
// statement runs 2 s of neighbor discovery after deploying (the oracle
// substrate converges at once), and `at` times count from there.
const settle = 2 * netsim.Second

// recoveryTemplate is the matrix's diamond with its choreography for cfg: the
// three hosts, receiver A's join, receiver B's (at JoinAt in a lateJoin
// column, else at once), a constant-rate sender for the whole run (one packet
// per PacketInterval from t = 5 s while t < End), and the run split one second
// before the fault so that script.Result.State samples the pre-fault baseline
// and the end.
//
// Topology (edge weights in delay units):
//
//	r0 --1-- r1 --1-- r2 --1-- r3      source behind r0
//	          \                /       receiver A behind r3 (joins early)
//	           2-- r4 --2-----+        receiver B behind r4 (joins late
//	                                   under loss; early otherwise)
//
// The r1–r4–r3 detour is the bypass: when r2 crashes or the r2–r3 link
// (edge 2) flaps, unicast reroutes over it and the multicast tree must follow
// from soft-state refresh alone. The RP / CBT core is r3, so A's delivery
// always crosses the faulted transit.
func recoveryTemplate(cfg RecoveryConfig, lateJoin bool) faultsearch.Template {
	dur := script.FormatDuration
	joinB := settle
	if lateJoin {
		joinB = cfg.JoinAt
	}
	count := (cfg.End - 5*netsim.Second + cfg.PacketInterval - 1) / cfg.PacketInterval
	sample := cfg.FaultAt - netsim.Second
	return faultsearch.Template{
		Name:   "recovery",
		Edges:  "0-1:1 1-2:1 2-3:1 1-4:2 4-3:2",
		RP:     "r3",
		Groups: []string{"G0"},
		Hosts:  []string{"src r0", "recvA r3", "recvB r4"},
		Before: []string{
			faultsearch.At(0, "join recvA G0"),
			faultsearch.At(joinB-settle, "join recvB G0"),
			faultsearch.At(3*netsim.Second, fmt.Sprintf("send src G0 count=%d every=%s size=64", count, dur(cfg.PacketInterval))),
		},
		After: []string{"run " + dur(sample-settle), "run " + dur(cfg.End-sample)},
	}
}

// recoveryColumn is the fault column table: a column's clauses on cfg's script
// clock, and whether it is a lateJoin column — receiver B joins at JoinAt,
// under the loss, and the recovery window opens at that join rather than at
// the fault.
func recoveryColumn(cfg RecoveryConfig, kind string) (clauses []faultsearch.Clause, lateJoin bool, err error) {
	fault := int((cfg.FaultAt - settle) / netsim.Second)
	// A loss holds to the end: its clear lies past the run and never fires.
	loss := func(rate float64) []faultsearch.Clause {
		return []faultsearch.Clause{{Kind: faultsearch.KindLoss, Edge: -1, Rate: rate, Class: faultsearch.ClassControl,
			Start: fault, Stop: int((cfg.End-settle)/netsim.Second) + 1}}
	}
	switch kind {
	case FaultLoss0: // control cell: the membership change alone
		return nil, true, nil
	case FaultLoss5:
		return loss(0.05), true, nil
	case FaultLoss20:
		return loss(0.2), true, nil
	case FaultFlap:
		// Three down/up cycles on the tree's transit link (edge 2, r2–r3)
		// starting at the fault: down 15 s, up 15 s.
		return []faultsearch.Clause{{Kind: faultsearch.KindFlap, Edge: 2, Start: fault, Down: 15, Up: 15, Cycles: 3}}, false, nil
	case FaultCrash:
		return []faultsearch.Clause{{Kind: faultsearch.KindCrash, Router: 2, Start: fault,
			Stop: int((cfg.RestartAt - settle) / netsim.Second)}}, false, nil
	}
	return nil, false, fmt.Errorf("experiments: unknown recovery fault %q", kind)
}

// RecoveryScript writes one matrix cell as .pim text: the kind's column of
// clauses rendered by faultsearch on the recovery diamond (recoveryTemplate),
// the protocol on the recipe's fast soft-state grade, so recovery happens
// within a four-minute run.
func RecoveryScript(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (string, error) {
	if err := cfg.check(); err != nil {
		return "", err
	}
	clauses, lateJoin, err := recoveryColumn(cfg, kind)
	if err != nil {
		return "", err
	}
	return recoveryTemplate(cfg, lateJoin).Render(string(proto), seed, clauses)
}

// runRecoveryCell renders one matrix cell and runs it, captured.
func runRecoveryCell(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (*script.Result, error) {
	text, err := RecoveryScript(cfg, proto, kind, seed)
	if err != nil {
		return nil, err
	}
	return runCell(text, script.RunConfig{Captured: true, Checked: cfg.Checked}), nil
}

// RecoveryTelemetry runs one recovery cell and replays its captured stream
// into a time-series sampler, returned for dumping — the per-router counter
// curves `pimbench run telemetry` writes. The cell is seeded exactly like
// the matrix's first cell; the dump also carries the scheduler's timer
// high-water mark as the network counted it.
func RecoveryTelemetry(cfg RecoveryConfig, proto Protocol, kind string, interval netsim.Time) (*telemetry.Sampler, error) {
	res, err := runRecoveryCell(cfg, proto, kind, parallel.DeriveSeed(cfg.Seed, 0))
	if err != nil {
		return nil, err
	}
	bus := telemetry.NewBus()
	smp := telemetry.NewSampler(bus, interval)
	bus.Replay(res.Events)
	smp.LiveTimerPeak = int64(res.PeakLiveTimers)
	return smp, nil
}

// runRecoveryOnce runs one cell of the matrix and folds its captured stream
// into the cell's metrics and its canonical delivery trace. The matrix names
// its own protocols and kinds and has checked its config, so a refusal here is
// a programming error.
func runRecoveryOnce(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (RecoveryCell, []DeliveryEvent) {
	res, err := runRecoveryCell(cfg, proto, kind, seed)
	if err != nil {
		panic(err)
	}
	bus := telemetry.NewBus()
	probe := telemetry.NewConvergenceProbe(bus)
	bus.Replay(res.Events)
	cell := RecoveryCell{
		Protocol:      proto,
		Fault:         kind,
		ResidualState: res.Runs[1].State - res.Runs[0].State,
		Delivered:     res.Delivered["recvA/G0"] + res.Delivered["recvB/G0"],
	}

	// The recovery window starts at the event whose repair we time: the
	// late join for the loss cells, the fault itself otherwise. Loss cells
	// recover when the late joiner (B) hears anything; topology cells when A
	// receives a packet sent after the fault (pre-fault packets in flight
	// don't count).
	windowStart := cfg.FaultAt
	recoveredAt, ok := probe.FirstDeliverySentAfter(recvARouter, cfg.FaultAt)
	if _, lateJoin, _ := recoveryColumn(cfg, kind); lateJoin {
		windowStart = cfg.JoinAt
		recoveredAt, ok = probe.FirstDeliveryAt(recvBRouter, cfg.JoinAt)
	}
	// Control effort: protocol control-message sends between the window
	// start and the delivery that proved the repaired tree (run end when
	// delivery never resumed).
	windowEnd := cfg.End
	if ok {
		cell.Recovered, windowEnd = true, recoveredAt
		cell.RecoverySec = (recoveredAt - windowStart).Seconds()
	}
	var trace []DeliveryEvent
	for _, ev := range res.Events {
		switch ev.Kind {
		case telemetry.JoinPruneSend, telemetry.GraftSend, telemetry.PruneSend,
			telemetry.RegisterSend, telemetry.LSAFlood:
			if ev.At >= windowStart && ev.At <= windowEnd {
				cell.CtrlMessages++
			}
		case telemetry.Deliver:
			// The delivery trace: the canonical stream's member-site
			// deliveries, in stream order (the `send` verb stamps every
			// packet, so Value is always the origination time).
			de := DeliveryEvent{At: ev.At, Src: ev.Source, Sent: netsim.Time(ev.Value)}
			if ev.Router == recvBRouter {
				de.Host = 1
			}
			trace = append(trace, de)
		}
	}
	cell.TraceHash = traceHash(trace)

	quiet := cfg.End
	if at, ok := probe.LastTreeMutation(); ok {
		quiet -= at
	}
	cell.TreeQuietSec = quiet.Seconds()
	for _, v := range res.Violations {
		cell.Violations = append(cell.Violations, v.String())
	}
	return cell, trace
}
