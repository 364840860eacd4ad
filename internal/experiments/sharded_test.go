package experiments

import (
	"reflect"
	"testing"

	"pim/internal/netsim"
	"pim/internal/parallel"
)

// The tentpole's hard gate at the experiments level: a sharded run must
// produce the same overhead ledger as the sequential differential oracle —
// every field except PeakTimers, which sharded runs report as the sum of
// per-shard peaks (an upper bound on the global concurrent peak).
func TestShardedSparseMatchesSequential(t *testing.T) {
	cfg := SparseConfig{
		Nodes: 30, Degree: 4, Groups: 3, Members: 3, Senders: 1,
		Seed: 42, Warmup: 10 * netsim.Second, Duration: 40 * netsim.Second,
		PacketInterval: 5 * netsim.Second, PruneLifetime: 30 * netsim.Second,
	}
	for _, proto := range []Protocol{PIMSM, PIMSMShared, CBT, DVMRP, PIMDM} {
		base := RunSparse(cfg, proto)
		if base.Delivered == 0 {
			t.Fatalf("%s: sequential oracle delivered nothing", proto)
		}
		for _, n := range []int{2, 4} {
			scfg := cfg
			scfg.Shards = n
			got := RunSparse(scfg, proto)
			mask := func(r Result) Result { r.PeakTimers = 0; return r }
			if mask(got) != mask(base) {
				t.Errorf("%s shards=%d diverges from sequential:\n  seq: %+v\n  shd: %+v",
					proto, n, base, got)
			}
			// PeakTimers is masked, not compared: it sums per-shard peaks
			// (shards need not peak simultaneously) and cross-shard frames
			// sit in outboxes — uncounted — until the barrier, so the value
			// is load-dependent in both directions. It must still be sane.
			if got.PeakTimers <= 0 {
				t.Errorf("%s shards=%d: non-positive peak %d", proto, n, got.PeakTimers)
			}
		}
	}
}

// Satellite gate: every cell of the recovery matrix — delivery trace,
// recovery instant, control tally, residual state, violations — must be
// bit-identical across shard counts. This covers root-scheduler fault
// actions (loss installs, link flaps, crash/restart) interleaving with
// sharded protocol execution.
func TestShardedRecoveryMatrixMatchesSequential(t *testing.T) {
	cfg := shortRecovery()
	kinds := RecoveryFaults()
	for pi, proto := range RecoveryProtocols() {
		for ki, kind := range kinds {
			seed := parallel.DeriveSeed(cfg.Seed, int64(pi*len(kinds)+ki))
			base, baseTrace := runRecoveryOnce(cfg, proto, kind, seed)
			for _, n := range []int{2, 4} {
				scfg := cfg
				scfg.Shards = n
				got, gotTrace := runRecoveryOnce(scfg, proto, kind, seed)
				if !reflect.DeepEqual(got, base) || !reflect.DeepEqual(gotTrace, baseTrace) {
					t.Errorf("%s/%s shards=%d diverges from sequential:\n  seq: %+v %v\n  shd: %+v %v",
						proto, kind, n, base, baseTrace, got, gotTrace)
				}
			}
		}
	}
}

// MOSPF cannot shard (shared link-state Domain); RunSparse must fall back
// to the sequential path even when shards are requested.
func TestShardedMOSPFFallsBack(t *testing.T) {
	cfg := SparseConfig{
		Nodes: 15, Degree: 3, Groups: 2, Members: 2, Senders: 1,
		Seed: 7, Warmup: 5 * netsim.Second, Duration: 20 * netsim.Second,
		PacketInterval: 5 * netsim.Second, PruneLifetime: 30 * netsim.Second,
	}
	base := RunSparse(cfg, MOSPF)
	cfg.Shards = 4
	got := RunSparse(cfg, MOSPF)
	if got != base {
		t.Fatalf("MOSPF run changed under shard request:\n  seq: %+v\n  shd: %+v", base, got)
	}
}
