package script

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pim/internal/netsim"
	"pim/internal/scenario"
)

const rendezvousScript = `
# Figure 3 rendezvous as a script.
topo edges 0-1 1-2 2-3
unicast oracle
group G0 rp r2
protocol pim-sm
host recv r0
host send r3
at 1s join recv G0
at 3s send send G0 count=5 every=1s
run 20s
expect recv received G0 >= 4
expect router r1 state >= 1
expect links-with-data >= 3
`

func TestRendezvousScript(t *testing.T) {
	s, err := Parse(rendezvousScript)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	if res.Delivered["recv/G0"] < 4 {
		t.Errorf("delivered map: %v", res.Delivered)
	}
	if len(res.Log) == 0 {
		t.Error("no deployment log")
	}
}

func TestFailedExpectationReported(t *testing.T) {
	s, err := Parse(strings.Replace(rendezvousScript,
		"expect recv received G0 >= 4",
		"expect recv received G0 == 999", 1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("impossible expectation passed")
	}
	if !strings.Contains(res.Failures[0], "recv received G0") {
		t.Errorf("failure text: %q", res.Failures[0])
	}
}

func TestLinkFailureScript(t *testing.T) {
	src := `
topo edges 0-1 1-3 0-2:3 2-3:3
unicast oracle
group G0 rp r3
protocol pim-sm spt=never
host recv r0
host send r3
at 1s join recv G0
at 3s send send G0 count=20 every=1s
at 8s linkdown 0
run 40s
expect recv received G0 >= 15
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

// TestAllProtocolsRunnable: the protocol statement accepts exactly the
// recipe's name list (scenario.ProtocolNames — the same list
// experiments.AllProtocols is held to), each with its operands, and refuses
// any other name.
func TestAllProtocolsRunnable(t *testing.T) {
	run := func(proto string) (*Result, error) {
		s, err := Parse(`
topo edges 0-1 1-2
unicast oracle
group G0 rp r1
protocol ` + proto + `
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=4 every=1s
run 15s
expect recv received G0 >= 3
`)
		if err != nil {
			t.Fatal(err)
		}
		return s.RunWith(RunConfig{})
	}
	for _, proto := range append(scenario.ProtocolNames(), "pim-sm spt=never", "pim-sm aggregate",
		"pim-dm prune=300s", "dvmrp prune=300s", "cbt timers=fast") {
		proto := proto
		t.Run(proto, func(t *testing.T) {
			res, err := run(proto)
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("failures: %v", res.Failures)
			}
		})
	}
	for _, proto := range []string{"pim", "pim-sm-never", "PIM-SM", "pim-sm spt=sometimes", "mospf timers=slow"} {
		if _, err := run(proto); err == nil || !strings.Contains(err.Error(), "unknown") {
			t.Errorf("protocol %s: err = %v, want an unknown-name error", proto, err)
		}
	}
}

func TestUnicastModesInScripts(t *testing.T) {
	for _, mode := range []string{"oracle", "dv", "ls"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			src := `
topo edges 0-1 1-2
unicast ` + mode + `
group G0 rp r1
protocol pim-sm
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=4 every=1s
run 15s
expect recv received G0 >= 3
`
			s, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.RunWith(RunConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.OK() {
				t.Fatalf("failures: %v", res.Failures)
			}
		})
	}
}

func TestRandomTopoAndLeave(t *testing.T) {
	src := `
topo random nodes=20 degree=4 seed=5
unicast oracle
group G0 rp r0
protocol pim-sm
host a r3
host b r17
at 1s join a G0
at 1s join b G0
at 3s send a G0 count=3 every=1s
at 10s leave b G0
run 300s
expect a received G0 >= 0
expect router r3 state >= 1
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"frobnicate\n",
		"topo bogus\n",
		"topo edges x-y\n",
		"topo edges 0-0\n",
		"topo edges 0-1:0\n",
	}
	for _, src := range cases {
		if s, err := Parse(src); err == nil {
			if _, err := s.RunWith(RunConfig{}); err == nil {
				t.Errorf("script %q ran without error", src)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	cases := []string{
		"unicast bogus\n",
		"host h r0\n", // host before topo
		"topo edges 0-1\nprotocol nosuch\n",
		"topo edges 0-1\ngroup G0\nprotocol pim-sm\nat 1s join nosuch G0\n",
		"topo edges 0-1\nprotocol pim-sm\nexpect router r9 state >= 1\n",
		"topo edges 0-1\nprotocol pim-sm\nrun 1x\n",
		"topo edges 0-1\ngroup G0 rp r7\n",
		"at 1s join h G0\n", // at before protocol
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := s.RunWith(RunConfig{}); err == nil {
			t.Errorf("script %q ran without error", src)
		}
	}
}

func TestParseDuration(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64 // microseconds
	}{
		{"150ms", 150_000},
		{"2s", 2_000_000},
		{"1m", 60_000_000},
		{"3", 3_000_000},
		{"0.5s", 500_000},
	} {
		got, err := parseDuration(tc.in)
		if err != nil || int64(got) != tc.want {
			t.Errorf("parseDuration(%q) = %v, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, bad := range []string{"", "x", "-1s"} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) succeeded", bad)
		}
	}
}

// TestFormatDurationRoundTrips: every microsecond value to 1.1 s, then every
// 97th to 10 s, reads back exactly through parseDuration. Fractional
// milliseconds such as 1.001ms scale to just under their value in float64,
// which a truncating parse read one microsecond short.
func TestFormatDurationRoundTrips(t *testing.T) {
	check := func(want netsim.Time) {
		s := FormatDuration(want)
		if got, err := parseDuration(s); err != nil || got != want {
			t.Fatalf("parseDuration(FormatDuration(%d) = %q) = %d, %v", want, s, got, err)
		}
	}
	for us := netsim.Time(0); us < 1100*netsim.Millisecond; us++ {
		check(us)
	}
	for us := 1100 * netsim.Millisecond; us < 10*netsim.Second; us += 97 {
		check(us)
	}
}

func TestInteropScript(t *testing.T) {
	src := `
# sparse 0-1, border 2, dense 3-4 (the §4 splice)
topo edges 0-1 1-2 2-3 3-4
unicast oracle
group G0 rp r0
protocol pim-sm dense=3,4 prune=300s
host sparse r1
host deep r4
at 1s join deep G0
at 4s send sparse G0 count=5 every=1s
run 20s
expect deep received G0 >= 4
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestMeanDelayExpectation(t *testing.T) {
	src := `
topo edges 0-1:5 1-2:5
unicast oracle
group G0 rp r1
protocol pim-sm
host recv r0
host send r2
at 1s join recv G0
at 3s send send G0 count=5 every=1s
run 15s
expect recv mean-delay G0 <= 60ms
expect recv mean-delay G0 > 5ms
expect recv mean-delay G0 >= 12ms
expect recv mean-delay G0 < 13ms
expect recv mean-delay G0 == 12ms
expect recv mean-delay G0 != 0.012001s
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestMeanDelayNothingDelivered(t *testing.T) {
	src := `
topo edges 0-1
unicast oracle
group G0 rp r1
protocol pim-sm
host recv r0
run 5s
expect recv mean-delay G0 <= 1s
`
	s, _ := Parse(src)
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.OK() {
		t.Fatal("mean-delay over zero deliveries should fail the expectation")
	}
}

func TestFaultVerbsScript(t *testing.T) {
	src := `
# Crash the mid-chain router under light control loss; delivery must
# resume after the restart with state rebuilt from refresh.
topo edges 0-1 1-2 2-3 1-4:2 4-3:2
unicast oracle
group G0 rp r3
protocol pim-sm
host send r0
host recv r3
at 1s join recv G0
at 3s send recv G0 count=1       # non-member source exercises register path too
at 3s send send G0 count=120 every=1s
at 10s loss all 0.05 control
at 30s crash r2
at 60s restart r2
at 80s loss all 0 control
run 200s
expect recv received G0 >= 60
expect router r2 state >= 1
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestPartitionHealScript(t *testing.T) {
	src := `
topo edges 0-1 1-2
unicast oracle
group G0 rp r2
protocol pim-dm
host send r0
host recv r2
at 1s join recv G0
at 3s send send G0 count=60 every=1s
at 10s partition 1
at 40s heal
run 120s
expect recv received G0 >= 25
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
	// The 30s cut must actually have cost traffic.
	if res.Delivered["recv/G0"] >= 60 {
		t.Errorf("partition lost no packets: %v", res.Delivered)
	}
}

func TestFlapVerbScript(t *testing.T) {
	src := `
topo edges 0-1 1-2 0-2:5
unicast oracle
group G0 rp r2
protocol dvmrp
host send r0
host recv r2
at 1s join recv G0
at 3s send send G0 count=90 every=1s
at 20s flap 1 down=5s up=5s cycles=3
run 120s
expect recv received G0 >= 50
`
	s, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

func TestFaultVerbErrors(t *testing.T) {
	cases := []string{
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss 9 0.5\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss all 2.0\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s loss all 0.5 bogus\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s flap 9\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s crash r9\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s partition\n",
		"topo edges 0-1\ngroup G0 rp r1\nprotocol pim-sm\nat 1s heal now\n",
	}
	for _, src := range cases {
		s, err := Parse(src)
		if err != nil {
			continue
		}
		if _, err := s.RunWith(RunConfig{}); err == nil {
			t.Errorf("script %q ran without error", src)
		}
	}
}

func TestPartitionScenarioFile(t *testing.T) {
	s, err := ParseFile("../../scenarios/partition.pim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("failures: %v", res.Failures)
	}
}

// hostile builds a small sparse-mode scenario around one hostile line: the
// protocol statement's extra operands, one statement after deployment, or one
// expectation after the run. hostileScripts is the table of them; each entry
// names the 1-based line that must be reported.
func hostile(proto, action, expectation string) string {
	return "topo edges 0-1 1-2\nunicast oracle\ngroup G0 rp r1\nhost a r0\nhost b r2\n" +
		"protocol pim-sm " + proto + "\nat 1s join b G0\n" + action + "\nrun 10s\n" + expectation + "\n"
}

var hostileScripts = func() []struct {
	src  string
	line int
} {
	type entry = struct {
		src  string
		line int
	}
	cases := []entry{
		// Operands the interpreter used to drop without a word.
		{hostile("", "at 3s send a G0 cont=5", ""), 8},
		{hostile("sptt=never", "", ""), 6},
		{"topo edges 0-1 1-2=5\n", 1},
		{hostile("", "at 3s send a G0 count=1 count=2", ""), 8},
		{hostile("extra", "", ""), 6},
		{"topo edges 0-1\ngroup G0\nprotocol pim-dm dense=1\n", 3},
		// Sizes no datagram, or no Register around one, can carry.
		{hostile("", "at 2s send a G0 size=70000", ""), 8},
		{hostile("", "at 2s send a G0 size=65515", ""), 8},
		{hostile("", "at 2s send a G0 size=7", ""), 8},
		{hostile("", "at 2s loss all NaN", ""), 8},
		{hostile("", "", "expect b received"), 10},
		{hostile("", "", "expect b received G0 >= 1 2"), 10},
		// Topologies the address plan cannot number, or the generator would
		// clamp without a word.
		{"topo random nodes=1000000000 degree=4\n", 1},
		{fmt.Sprintf("topo random nodes=%d degree=2\n", scenario.MaxRouters+1), 1},
		{"topo random nodes=20000 degree=5\n", 1},
		{"topo random nodes=10 degree=0\n", 1},
		{"topo random nodes=10 degree=-3\n", 1},
		{"topo random nodes=10 degree=4 mindelay=0\n", 1},
		{"topo random nodes=10 degree=4 mindelay=-2 maxdelay=5\n", 1},
		{"topo random nodes=10 degree=4 mindelay=5 maxdelay=2\n", 1},
		{fmt.Sprintf("topo edges 0-1 1-%d\n", scenario.MaxRouters), 1},
		{"topo edges 0-1 1-2:9223372036854775807\n", 1},
		// A path the unicast oracle's 32-bit metric cannot hold, and a file
		// naming a node index that once sized the graph before any check.
		{"topo edges 0-1:2147482\n", 1},
		{"topo file testdata/huge-index.edges\n", 1},
		// A link capacity that is no positive byte rate, on every topo form.
		{"topo edges 0-1 bandwidth=0\n", 1},
		{"topo random nodes=10 degree=4 bandwidth=-1\n", 1},
		{"topo edges 0-1 bandwidth=x\n", 1},
		{"topo edges 0-1 bandwidth=1.5\n", 1},
	}
	// Non-finite and overflowing values in every duration position.
	for _, d := range []string{"NaNs", "Infs", "-Infs", "1e300", "NaN", "1e19m"} {
		cases = append(cases,
			entry{hostile("", "at "+d+" join b G0", ""), 8},
			entry{hostile("", "run "+d, ""), 8},
			entry{hostile("", "at 2s send a G0 count=2 every="+d, ""), 8},
			entry{hostile("prune="+d, "", ""), 6},
			entry{hostile("", "at 2s flap 0 down="+d, ""), 8},
			entry{hostile("", "at 2s flap 0 up="+d, ""), 8},
			entry{hostile("", "at 2s reorder all "+d, ""), 8},
			entry{hostile("", "", "expect b mean-delay G0 <= "+d), 10},
		)
	}
	return cases
}()

// TestHostileScriptsAreErrors: every mistyped, out-of-range or non-finite
// operand is a line-numbered error from Parse or RunWith — never a panic,
// never a silent default.
func TestHostileScriptsAreErrors(t *testing.T) {
	for _, tc := range hostileScripts {
		var err error
		if s, perr := Parse(tc.src); perr != nil {
			err = perr
		} else {
			_, err = s.RunWith(RunConfig{})
		}
		if want := fmt.Sprintf("line %d: ", tc.line); err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Errorf("script %q:\n err = %v, want a %q error", tc.src, err, want)
		}
	}
	for _, src := range []string{hostileScripts[0].src, hostileScripts[1].src, hostileScripts[2].src} {
		if _, err := Parse(src); err == nil || !strings.Contains(err.Error(), " does not take ") {
			t.Errorf("script %q: Parse err = %v, want a does-not-take error", src, err)
		}
	}
}

// TestGrammarCommentMatchesTables holds the package comment's grammar block
// to the three tables, both ways: every row's usage line appears in the block
// verbatim, and every line of the block starts with the usage of a row — so a
// form can be neither added without documentation nor documented without
// existing.
func TestGrammarCommentMatchesTables(t *testing.T) {
	src, err := os.ReadFile("script.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "\npackage script\n")
	if !ok {
		t.Fatal("no package clause in script.go")
	}
	var block []string
	for _, ln := range strings.Split(doc, "\n") {
		if form, ok := strings.CutPrefix(ln, "//\t"); ok {
			block = append(block, form)
		}
	}
	var usages []string
	for i := range statements {
		usages = append(usages, (&stmt{row: &statements[i]}).syntax())
	}
	for i := range verbs {
		usages = append(usages, (&stmt{verb: &verbs[i]}).syntax())
	}
	for _, sub := range subjects {
		value := " <op> <n>"
		if sub.dur {
			value = " <op> <dur>"
		}
		usages = append(usages, "expect "+sub.form+value)
	}
	documented := func(ln, usage string) bool {
		rest, ok := strings.CutPrefix(ln, usage)
		return ok && (rest == "" || strings.HasPrefix(strings.TrimLeft(rest, " "), "#"))
	}
	for _, usage := range usages {
		if !slices.ContainsFunc(block, func(ln string) bool { return documented(ln, usage) }) {
			t.Errorf("grammar block lacks the line %q", usage)
		}
	}
	for _, ln := range block {
		if !slices.ContainsFunc(usages, func(usage string) bool { return documented(ln, usage) }) {
			t.Errorf("grammar block line %q is no table row's usage", ln)
		}
	}
	if len(block) != len(usages) {
		t.Errorf("grammar block has %d lines, the tables %d rows", len(block), len(usages))
	}
}

// TestResultStateSamples: Result.Runs holds one reading per `run`, its State
// the sum of what `expect router rN state` reads at that clock. The samples
// are readings rather than a fold of the event stream — the crash in between
// drops r1's entries without an EntryExpire. The other counts run from
// deployment, so they never fall, and the two edges' data crossings are the
// backbone share of the network's.
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
	s, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunWith(RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Errorf("per-router readings moved: %v", res.Failures)
	}
	var state []int
	for _, rd := range res.Runs {
		state = append(state, rd.State)
	}
	if want := []int{5, 3}; !slices.Equal(state, want) {
		t.Errorf("State = %v, want %v (the per-router sums)", state, want)
	}
	first, last := res.Runs[0], res.Runs[1]
	if last.At-first.At != 10*netsim.Second || last.Ctrl < first.Ctrl || last.Events <= first.Events ||
		last.Totals.DataPackets <= first.Totals.DataPackets {
		t.Errorf("readings do not accumulate over the second run: %+v then %+v", first, last)
	}
	if edges := last.EdgeData; len(edges) != 2 || edges[0] == 0 || edges[0]+edges[1] >= last.Totals.DataPackets {
		t.Errorf("edge data %v of %d crossings", edges, last.Totals.DataPackets)
	}
	if res.PeakLiveTimers == 0 {
		t.Error("run reported no peak timer population")
	}
}

// TestBandwidthQueuesEdgeLinks: topo bandwidth= caps every edge's link, on the
// edges and file forms alike — a burst of large packets queues, and the run's
// reading reports the worst wait. Without the key no frame ever waits.
func TestBandwidthQueuesEdgeLinks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.edges")
	if err := os.WriteFile(path, []byte("0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const body = `
group G0 rp r1
host src r0
host recv r2
protocol pim-sm
at 0 join recv G0
run 5s
at 0 send src G0 count=20 every=10ms size=1000
run 10s
`
	for _, tc := range []struct {
		topo   string
		queued bool
	}{
		{"topo edges 0-1 1-2", false},
		{"topo edges 0-1 1-2 bandwidth=10000", true},
		{"topo file " + path + " bandwidth=10000", true},
	} {
		s, err := Parse(tc.topo + body)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunWith(RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if wait := res.Runs[1].MaxQueueDelay; (wait > 0) != tc.queued {
			t.Errorf("%s: worst queueing delay %dus", tc.topo, wait)
		}
		if got := res.Delivered["recv/G0"]; got != 20 {
			t.Errorf("%s: delivered %d of 20", tc.topo, got)
		}
	}
}
