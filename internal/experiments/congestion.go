package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"pim/internal/netsim"
	"pim/internal/script"
	"pim/internal/topology"
)

// CongestionConfig parameterizes the concentration→queueing experiment: the
// consequence of Figure 2(b)'s per-link flow concentration once links have
// finite capacity. Many groups share one rendezvous point; with shared
// trees every flow of every group crosses the RP-adjacent links, which
// saturate, while per-source SPTs spread the load.
type CongestionConfig struct {
	Nodes   int
	Degree  float64
	Groups  int
	Members int
	Senders int
	Seed    int64
	// Bandwidth is the per-link capacity in bytes/second.
	Bandwidth int64
	// PacketSize and PacketInterval set each sender's rate.
	PacketSize     int
	PacketInterval netsim.Time
	Duration       netsim.Time
}

// DefaultCongestion returns a workload that loads the RP-adjacent links to
// several times their capacity under shared trees while leaving individual
// SPT paths uncongested.
func DefaultCongestion() CongestionConfig {
	return CongestionConfig{
		Nodes: 30, Degree: 4, Groups: 8, Members: 3, Senders: 2,
		Seed:       11,
		Bandwidth:  20_000, // bytes/s
		PacketSize: 256, PacketInterval: 200 * netsim.Millisecond,
		Duration: 60 * netsim.Second,
	}
}

// CongestionResult reports one protocol variant's delay under load.
type CongestionResult struct {
	Protocol Protocol
	// MeanDelay is the average sender→receiver delivery delay.
	MeanDelay netsim.Time
	// MaxQueueDelay is the worst per-link queueing delay observed.
	MaxQueueDelay netsim.Time
	Delivered     int
}

// RunCongestion measures delivery delay under finite link bandwidth for one
// tree policy (ProtoPIMSM = per-source SPTs, ProtoPIMSMShared = shared
// trees through a single shared RP). Deliveries count from the end of a 10 s
// sending warm-up that lets the trees form (registers, SPT switches).
func RunCongestion(cfg CongestionConfig, proto Protocol) CongestionResult {
	res := runCell(congestionScript(cfg, proto), script.RunConfig{Captured: true})
	out := CongestionResult{Protocol: proto, MaxQueueDelay: res.Runs[2].MaxQueueDelay}
	out.Delivered, out.MeanDelay = meanDelay(res.Events, res.Runs[1].At)
	return out
}

// congestionScript writes the congestion workload as .pim text: a random
// internet whose edges carry Bandwidth bytes/s (unbounded at 0), every group
// rendezvousing at one router drawn from the seeded stream — the
// concentration point — and per group Members receivers and Senders senders
// on their routers' hosts (pimText.host); every receiver joined and a 10 s
// settle; then every sender at PacketSize bytes per PacketInterval through a
// 10 s warm-up run and the Duration run.
func congestionScript(cfg CongestionConfig, proto Protocol) string {
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := topology.Random(topology.GenConfig{Nodes: cfg.Nodes, Degree: cfg.Degree}, rng)
	rp := rng.Intn(cfg.Nodes)
	topo := topoLine(g)
	if cfg.Bandwidth > 0 {
		topo += fmt.Sprintf(" bandwidth=%d", cfg.Bandwidth)
	}
	var t pimText
	t.line("%s\nunicast oracle", topo)
	var joins, sends []string
	count := (10*netsim.Second+cfg.Duration)/cfg.PacketInterval + 1
	for gi := range cfg.Groups {
		t.line("group G%d rp r%d", gi, rp)
		picked := topology.PickDistinct(cfg.Nodes, cfg.Members+cfg.Senders, rng)
		for _, m := range picked[:cfg.Members] {
			joins = append(joins, fmt.Sprintf("at 0 join %s G%d", t.host(m), gi))
		}
		for _, s := range picked[cfg.Members:] {
			sends = append(sends, fmt.Sprintf("at 0 send %s G%d count=%d every=%s size=%d",
				t.host(s), gi, count, script.FormatDuration(cfg.PacketInterval), cfg.PacketSize))
		}
	}
	t.protocol(proto, 0)
	t.line("%s\nrun 10s\n%s", strings.Join(joins, "\n"), strings.Join(sends, "\n"))
	t.line("run 10s\nrun %s", script.FormatDuration(cfg.Duration))
	return t.String()
}
