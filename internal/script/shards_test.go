package script

import (
	"path/filepath"
	"reflect"
	"testing"

	"pim/internal/telemetry"
)

// TestScenariosShardEquivalence is the scenario-level half of the sharding
// acceptance: every scripted workload in the repository must produce the
// same canonical telemetry stream — every join/prune, entry mutation, timer
// fire, delivery, and drop, with identical timestamps — whether it runs
// sequentially or partitioned across 2 or 4 parallel shards. The canonical
// form (RunConfig.Captured: lane buffers merged, stable-sorted by (At, Router))
// preserves each router's publication order, so a match means no router
// anywhere observed the shard count. The scripts cover RP failover, SPT
// switchover, dense-mode grafting, interop, and the fault verbs (loss,
// flap, crash/restart, partition), so this is the broadest
// shard-determinism check in the tree.
func TestScenariosShardEquivalence(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.pim")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenario scripts found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			capture := func(shards int) ([]telemetry.Event, *Result) {
				s, err := ParseFile(path)
				if err != nil {
					t.Fatalf("parse: %v", err)
				}
				res, err := s.RunWith(RunConfig{Captured: true, Shards: shards})
				if err != nil {
					t.Fatalf("run (shards=%d): %v", shards, err)
				}
				return res.Events, res
			}
			baseEvents, baseRes := capture(1)
			if len(baseEvents) == 0 {
				t.Fatal("no telemetry events; equivalence check is vacuous")
			}
			for _, n := range []int{2, 4} {
				gotEvents, gotRes := capture(n)
				if len(gotEvents) != len(baseEvents) {
					t.Fatalf("shards=%d: event streams differ in length: seq=%d shd=%d",
						n, len(baseEvents), len(gotEvents))
				}
				for i := range baseEvents {
					if gotEvents[i] != baseEvents[i] {
						t.Fatalf("shards=%d: event %d diverged:\nseq = %+v\nshd = %+v",
							n, i, baseEvents[i], gotEvents[i])
					}
				}
				if !reflect.DeepEqual(gotRes.Failures, baseRes.Failures) {
					t.Errorf("shards=%d: expectation outcomes differ: seq=%v shd=%v",
						n, baseRes.Failures, gotRes.Failures)
				}
				if !reflect.DeepEqual(gotRes.Delivered, baseRes.Delivered) {
					t.Errorf("shards=%d: delivery counts differ:\nseq = %v\nshd = %v",
						n, baseRes.Delivered, gotRes.Delivered)
				}
			}
		})
	}
}

// TestCheckedRunShards: a checked run needs no capture to shard — the
// deployment gives every shard its own lane and checker — and the shard count
// stays unobservable in what a checked run reports.
func TestCheckedRunShards(t *testing.T) {
	for _, path := range []string{"../../scenarios/rpfailover.pim", "../../scenarios/found/diamond4-pim-dm-delivery-recv-G0.pim"} {
		run := func(shards int) *Result {
			s, err := ParseFile(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunWith(RunConfig{Checked: true, Shards: shards})
			if err != nil {
				t.Fatalf("%s shards=%d: %v", path, shards, err)
			}
			return res
		}
		seq, shd := run(1), run(2)
		if len(seq.Delivered) == 0 || !reflect.DeepEqual(shd.Delivered, seq.Delivered) {
			t.Errorf("%s: delivered seq=%v shd=%v", path, seq.Delivered, shd.Delivered)
		}
		if !reflect.DeepEqual(shd.Failures, seq.Failures) || !reflect.DeepEqual(shd.Violations, seq.Violations) {
			t.Errorf("%s: seq failures %v violations %v; shd failures %v violations %v",
				path, seq.Failures, seq.Violations, shd.Failures, shd.Violations)
		}
	}
}

// TestResultStateSamples: Result.State holds one reading per `run`, each the
// sum of what `expect router rN state` reads at that clock, whatever the shard
// count. The samples are readings rather than a fold of the event stream — the
// crash in between drops r1's entries without an EntryExpire.
func TestResultStateSamples(t *testing.T) {
	const text = `topo edges 0-1 1-2
group G0 rp r1
host src r0
host recv r2
protocol pim-sm timers=fast
at 1s join recv G0
at 3s send src G0 count=40 every=1s
at 20s crash r1
run 15s
expect router r0 state == 1
expect router r1 state == 2
expect router r2 state == 2
run 10s
expect router r0 state == 1
expect router r1 state == 0
expect router r2 state == 2
`
	for _, shards := range []int{1, 2} {
		s, err := Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunWith(RunConfig{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !res.OK() {
			t.Errorf("shards=%d: per-router readings moved: %v", shards, res.Failures)
		}
		if want := []int{5, 3}; !reflect.DeepEqual(res.State, want) {
			t.Errorf("shards=%d: State = %v, want %v (the per-router sums)", shards, res.State, want)
		}
		if shards == 2 && (len(res.ShardLoads) != 2 || res.PeakLiveTimers == 0) {
			t.Errorf("sharded run reported loads %+v, peak timers %d", res.ShardLoads, res.PeakLiveTimers)
		}
	}
}

// TestInteropShards: the mixed sparse/dense form partitions like any other
// deployment — every interop engine, borders included, is per node — and
// delivers the same counts on two shards as on one.
func TestInteropShards(t *testing.T) {
	s, err := ParseFile("../../scenarios/interop.pim")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	shd, err := s.RunWith(RunConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(shd.ShardLoads) != 2 || seq.ShardLoads != nil {
		t.Errorf("shard loads: seq %+v, shards=2 %+v", seq.ShardLoads, shd.ShardLoads)
	}
	if !shd.OK() || !reflect.DeepEqual(shd.Delivered, seq.Delivered) {
		t.Errorf("shards=2 failures %v delivered %v, sequential delivered %v", shd.Failures, shd.Delivered, seq.Delivered)
	}
}
