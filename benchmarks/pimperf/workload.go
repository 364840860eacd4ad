package main

import (
	"fmt"
	"math/rand"

	"pim/internal/addr"
	"pim/internal/netsim"
	"pim/internal/scenario"
	"pim/internal/topology"
)

// nominalSeconds is the -seconds value the window lengths below were tuned
// at: three windows of about a third of it each on the reference host. Other
// values scale the simulated window length linearly, so counts compare only
// between runs at the same -seconds.
const nominalSeconds = 10

// rebuilds is how many times one run generates its inputs and repeats
// set-up and window; host-time metrics are the median over them.
const rebuilds = 3

// maxHostLANs caps the stub LANs of one internet. scenario.HostLANAddr puts
// byte(r) in the third octet, so LANs on routers r and r+256 collide; hosts
// therefore sit only on routers with pairwise distinct r mod 256.
const maxHostLANs = 200

// drain is the tail of every window in which sends are no longer owed to the
// steady members: it is longer than any path, so every owed packet has
// arrived when the window closes.
const drain = netsim.Second

// spec is one workload's frozen parameters. README.md gives the reason for
// each value.
type spec struct {
	name    string
	engines []scenario.Protocol
	// interval is the per-sender packet period, parallel to engines.
	interval []netsim.Time
	routers  int
	groups   int
	// steady members stay joined for the whole run; delivered_share is
	// counted over them alone. pool hosts are toggled by the flip schedule.
	steady, pool, senders int
	// sendingGroups is how many groups have senders (0 = all of them).
	sendingGroups int
	flipEvery     netsim.Time
	// settle is the simulated time traffic runs before the window opens;
	// window is the simulated length of the window at nominalSeconds.
	settle, window netsim.Time
	// smoke marks the cut-down sizes of sized: one rebuild, short probes.
	smoke bool
}

var specs = []spec{
	{
		name:    "sparse-data",
		engines: []scenario.Protocol{scenario.SparseMode},
		routers: 256, groups: 16, steady: 8, senders: 2,
		interval: []netsim.Time{10 * netsim.Millisecond},
		settle:   15 * netsim.Second, window: 52 * netsim.Second,
	},
	{
		name:    "sparse-churn",
		engines: []scenario.Protocol{scenario.SparseMode},
		routers: 1024, groups: 256, steady: 2, pool: 4, senders: 1,
		interval:  []netsim.Time{netsim.Second},
		flipEvery: netsim.Millisecond,
		settle:    20 * netsim.Second, window: 280 * netsim.Second,
	},
	{
		name:    "dense-data",
		engines: []scenario.Protocol{scenario.DenseMode},
		routers: 256, groups: 16, steady: 8, senders: 2,
		interval: []netsim.Time{250 * netsim.Millisecond},
		settle:   10 * netsim.Second, window: 42 * netsim.Second,
	},
	{
		name:    "dense-ctrl",
		engines: []scenario.Protocol{scenario.DenseMode},
		routers: 256, groups: 16, steady: 8, senders: 1, sendingGroups: 4,
		interval: []netsim.Time{10 * netsim.Second},
		settle:   60 * netsim.Second, window: 350 * netsim.Second,
	},
	{
		name:    "baselines-data",
		engines: []scenario.Protocol{scenario.CBTMode, scenario.MOSPFMode, scenario.DVMRPMode},
		routers: 256, groups: 16, steady: 8, senders: 2,
		interval: []netsim.Time{10 * netsim.Millisecond, 10 * netsim.Millisecond, 400 * netsim.Millisecond},
		settle:   5 * netsim.Second, window: 21 * netsim.Second,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sized returns the spec as one run uses it: the window scaled to -seconds,
// or everything cut down to the -smoke sizes the unit test runs.
func (s spec) sized(seconds int, smoke bool) spec {
	if !smoke {
		s.window = s.window * netsim.Time(seconds) / nominalSeconds
		return s
	}
	s.smoke = true
	s.routers = 32
	s.groups = min(s.groups, 8)
	if s.sendingGroups > 0 {
		s.sendingGroups = min(s.sendingGroups, s.groups)
	}
	s.settle = 3 * netsim.Second
	s.window = 2*netsim.Second + drain
	s.interval = append([]netsim.Time(nil), s.interval...)
	for i := range s.interval {
		s.interval[i] = min(s.interval[i], 100*netsim.Millisecond)
	}
	return s
}

// groupPlan is one group's cast, as indexes into inputs.hostRouters.
type groupPlan struct {
	addr    addr.IP
	steady  []int
	pool    []int
	senders []int
	// phase[i] offsets sender i's first packet inside one interval, as a
	// share of the interval in parts per million.
	phase []int64
}

// inputs is everything a rebuild feeds the program, generated from the seed
// alone.
type inputs struct {
	graph *topology.Graph
	// hostRouters are the routers that get a stub LAN with one host.
	hostRouters []int
	groups      []groupPlan
	flipSeed    int64
}

// generate derives one rebuild's inputs from the seed: the internet, which
// routers carry hosts, each group's steady members, churn pool and senders,
// the senders' phases, and the seed of the flip schedule.
func generate(s spec, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{
		graph: topology.Random(topology.GenConfig{Nodes: s.routers, Degree: 4, MinDelay: 1, MaxDelay: 10}, rng),
	}

	// Host LANs: walk a random order of the routers and keep the first of
	// each residue class mod 256.
	var taken [256]bool
	for _, r := range rng.Perm(s.routers) {
		if len(in.hostRouters) == maxHostLANs {
			break
		}
		if !taken[r%256] {
			taken[r%256] = true
			in.hostRouters = append(in.hostRouters, r)
		}
	}
	if err := checkResidues(in.hostRouters); err != nil {
		return nil, err
	}

	cast := s.steady + s.pool + s.senders
	if cast > len(in.hostRouters) {
		return nil, fmt.Errorf("workload %s: a group needs %d hosts, the internet has %d host LANs", s.name, cast, len(in.hostRouters))
	}
	for gi := 0; gi < s.groups; gi++ {
		// Distinct hosts within a group keep its steady members apart from
		// its churn pool and from its senders.
		pick := rng.Perm(len(in.hostRouters))[:cast]
		gp := groupPlan{
			addr:   addr.GroupForIndex(gi),
			steady: pick[:s.steady],
			pool:   pick[s.steady : s.steady+s.pool],
		}
		if s.sendingGroups == 0 || gi < s.sendingGroups {
			gp.senders = pick[s.steady+s.pool:]
			for range gp.senders {
				gp.phase = append(gp.phase, rng.Int63n(1_000_000))
			}
		}
		in.groups = append(in.groups, gp)
	}
	in.flipSeed = rng.Int63()
	return in, nil
}

// checkResidues asserts the placement rule of maxHostLANs.
func checkResidues(routers []int) error {
	if len(routers) > maxHostLANs {
		return fmt.Errorf("host placement: %d host LANs, at most %d allowed", len(routers), maxHostLANs)
	}
	seen := map[int]int{}
	for _, r := range routers {
		if prev, dup := seen[r%256]; dup {
			return fmt.Errorf("host placement: routers %d and %d share residue %d mod 256, their LAN addresses would collide", prev, r, r%256)
		}
		seen[r%256] = r
	}
	return nil
}
