package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/parallel"
	"pim/internal/scenario"
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
// Workers setting and any shard count; each cell's outcome, delivery-trace
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

// recoveryFaults is the fault column table: the `at` verb each kind fires at
// FaultAt and at RestartAt. In a lateJoin cell receiver B joins at JoinAt,
// under the loss, and the recovery window opens at that join rather than at
// the fault.
var recoveryFaults = map[string]struct {
	atFault, atRestart string
	lateJoin           bool
}{
	FaultLoss0:  {lateJoin: true}, // control cell: the membership change alone
	FaultLoss5:  {atFault: "loss all 0.05 control", lateJoin: true},
	FaultLoss20: {atFault: "loss all 0.2 control", lateJoin: true},
	// Three down/up cycles on the tree's transit link (edge 2, r2–r3)
	// starting at the fault: down 15 s, up 15 s.
	FaultFlap:  {atFault: "flap 2 down=15s up=15s cycles=3"},
	FaultCrash: {atFault: "crash r2", atRestart: "restart r2"},
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
	// Shards is the partition count every shardable cell executes under
	// (0 or 1 = sequential; MOSPF always stays sequential).
	Shards int
	// Checked attaches the online invariant checker to every cell; any
	// §3.8 contract violation surfaces on the cell.
	Checked bool
}

// check holds the config to what a cell script can express, naming the field
// at fault: the sender's count= divides by PacketInterval, the pre-fault state
// sample sits one second before FaultAt and after the 2 s deployment settle,
// and the restart and the late join must fall inside the run, after the fault.
func (cfg RecoveryConfig) check() error {
	switch {
	case cfg.PacketInterval <= 0:
		return errors.New("experiments: RecoveryConfig.PacketInterval must be positive")
	case cfg.FaultAt < 3*netsim.Second:
		return errors.New("experiments: RecoveryConfig.FaultAt must be at least 3s")
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

// cellScript is the matrix cell every (protocol, fault) pair fills in; the
// blanks are the group's RP, the fault seed, the protocol, B's join time, the
// sender's count and interval, the fault's `at` lines and the two runs.
const cellScript = `topo edges 0-1:1 1-2:1 2-3:1 1-4:2 4-3:2
group G0%s
faultseed %d
host src r0
host recvA r3
host recvB r4
protocol %s timers=fast
at 0s join recvA G0
at %s join recvB G0
at 3s send src G0 count=%d every=%s size=64
%srun %s
run %s
`

// RecoveryScript writes one matrix cell as .pim text, the form
// faultsearch.Schedule.Render gives its schedules: the diamond with the three
// hosts on the oracle unicast substrate, the protocol on the recipe's fast
// soft-state grade (so recovery happens within a four-minute run), the joins,
// a constant-rate sender for the whole run (one packet per PacketInterval
// from t = 5 s while t < End), and the kind's row of recoveryFaults. The run
// is split one second before the fault so that script.Result.State samples
// the pre-fault baseline and the end.
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
// always crosses the faulted transit. Only the protocols that anchor a group
// declare it: a declared RP list also rides every host join as an RP-map
// frame (§3.1 fn. 9), which the others have no use for.
func RecoveryScript(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (string, error) {
	f, ok := recoveryFaults[kind]
	if !ok {
		return "", fmt.Errorf("experiments: unknown recovery fault %q", kind)
	}
	if err := cfg.check(); err != nil {
		return "", err
	}
	dur := script.FormatDuration
	rp, joinB, faults := "", settle, ""
	if (scenario.Recipe{Protocol: string(proto)}).DeclaresRP() {
		rp = " rp r3"
	}
	if f.lateJoin {
		joinB = cfg.JoinAt
	}
	if f.atFault != "" {
		faults = fmt.Sprintf("at %s %s\n", dur(cfg.FaultAt-settle), f.atFault)
	}
	if f.atRestart != "" {
		faults += fmt.Sprintf("at %s %s\n", dur(cfg.RestartAt-settle), f.atRestart)
	}
	count := (cfg.End - 5*netsim.Second + cfg.PacketInterval - 1) / cfg.PacketInterval
	sample := cfg.FaultAt - netsim.Second
	return fmt.Sprintf(cellScript, rp, seed, proto, dur(joinB-settle), count, dur(cfg.PacketInterval),
		faults, dur(sample-settle), dur(cfg.End-sample)), nil
}

// runCell renders the cell and runs it through the script harness, captured.
// It fails on what the caller chose — the config, the fault kind, the protocol
// name; the renderer writes only what the parser reads.
func runCell(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (*script.Result, error) {
	text, err := RecoveryScript(cfg, proto, kind, seed)
	if err != nil {
		return nil, err
	}
	sc, err := script.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("experiments: rendered cell does not parse: %w\n%s", err, text)
	}
	return sc.RunWith(script.RunConfig{Captured: true, Checked: cfg.Checked, Shards: cfg.Shards})
}

// RecoveryTelemetry runs one recovery cell and replays its captured stream
// into a time-series sampler, returned for dumping — the per-router counter
// curves `pimbench run telemetry` writes. The cell runs under cfg.Shards,
// seeded exactly like the matrix's first cell; the dump also carries the
// scheduler's timer high-water mark and, for a sharded cell, the per-shard
// execution counters, both as the network counted them.
func RecoveryTelemetry(cfg RecoveryConfig, proto Protocol, kind string, interval netsim.Time) (*telemetry.Sampler, error) {
	res, err := runCell(cfg, proto, kind, parallel.DeriveSeed(cfg.Seed, 0))
	if err != nil {
		return nil, err
	}
	bus := telemetry.NewBus()
	smp := telemetry.NewSampler(bus, interval)
	bus.Replay(res.Events)
	smp.LiveTimerPeak, smp.Shards = int64(res.PeakLiveTimers), res.ShardLoads
	return smp, nil
}

// runRecoveryOnce runs one cell of the matrix and folds its captured stream
// into the cell's metrics and its canonical delivery trace. The matrix names
// its own protocols and kinds and has checked its config, so a refusal here is
// a programming error.
func runRecoveryOnce(cfg RecoveryConfig, proto Protocol, kind string, seed int64) (RecoveryCell, []DeliveryEvent) {
	res, err := runCell(cfg, proto, kind, seed)
	if err != nil {
		panic(err)
	}
	bus := telemetry.NewBus()
	probe := telemetry.NewConvergenceProbe(bus)
	bus.Replay(res.Events)
	cell := RecoveryCell{
		Protocol:      proto,
		Fault:         kind,
		ResidualState: res.State[1] - res.State[0],
		Delivered:     res.Delivered["recvA/G0"] + res.Delivered["recvB/G0"],
	}

	// The recovery window starts at the event whose repair we time: the
	// late join for the loss cells, the fault itself otherwise. Loss cells
	// recover when the late joiner (B) hears anything; topology cells when A
	// receives a packet sent after the fault (pre-fault packets in flight
	// don't count).
	windowStart := cfg.FaultAt
	recoveredAt, ok := probe.FirstDeliverySentAfter(recvARouter, cfg.FaultAt)
	if recoveryFaults[kind].lateJoin {
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
