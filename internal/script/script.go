// Package script implements the scenario scripting language of cmd/pimscript:
// small line-oriented text files that declare a topology, deploy a multicast
// protocol, schedule joins/leaves/sends/link failures, run the simulation,
// and assert on the outcome. Scripts double as executable protocol
// documentation (see the scenarios/ directory) and as an acceptance-test
// harness for protocol changes.
//
// Grammar (one statement per line, '#' comments). Every line below is one row
// of the statements, verbs or subjects table in this file, and the tables are
// the whole language: an operand a row does not declare — positional or
// key=value — is an error, never ignored.
//
//	topo random nodes=<n> degree=<f> [seed=<n>] [mindelay=<n>] [maxdelay=<n>] | file <path> | edges <a>-<b>[:<delay>]...
//	unicast oracle|dv|ls
//	group <name> [rp <router>...]       # RP candidates in order; the first doubles as the CBT core
//	faultseed <n>                       # seed of the loss/reorder streams (default 1)
//	host <name> <router>
//	protocol <name> [aggregate] [spt=immediate|never|threshold] [prune=<dur>] [timers=fast] [dense=<router>,...]
//	at <time> <verb> ...                # the verbs follow
//	run <duration>
//	expect <subject> <op> <value>       # the subjects follow; op: >= <= == != > <
//
//	at <time> join <host> <group>
//	at <time> leave <host> <group>
//	at <time> send <host> <group> [count=<n>] [every=<dur>] [size=<n>]   # size 8..scenario.MaxDataSize, default 128
//	at <time> linkdown <edge>
//	at <time> linkup <edge>
//	at <time> loss <edge>|all <rate> [control|data]       # Bernoulli loss; rate 0 clears
//	at <time> reorder <edge>|all <window> [control|data]  # bounded reordering; 0 clears
//	at <time> flap <edge> [down=<dur>] [up=<dur>] [cycles=<n>]
//	at <time> crash <router>
//	at <time> restart <router>
//	at <time> partition <edge>...
//	at <time> heal
//
//	expect <host> received <group> <op> <n>
//	expect router <router> state <op> <n>
//	expect <host> mean-delay <group> <op> <dur>
//	expect violations <op> <n>          # invariant-checker violations (checked runs)
//	expect links-with-data <op> <n>
//
// Routers are written r0, r1, ... (or bare indexes), edges by their index in
// the topology; durations use Go-like suffixes (150ms, 2s, 1m; bare numbers
// are seconds). topo, unicast, group, faultseed and host are declarations:
// they take effect before the protocol deploys wherever they stand. The other
// statements execute in order, and an `at` time counts from the script clock
// at its statement — deployment plus every preceding `run` — not from zero.
//
// A protocol statement is a scenario.Recipe written out: <name> is one of
// scenario.ProtocolNames (pim-sm, pim-sm-shared, pim-dm, dvmrp, cbt, mospf),
// spt= and aggregate apply to sparse mode, prune= to the flood-and-prune
// protocols, timers=fast selects the recipe's one fast timer grade (shrunk
// soft-state clocks; fault scenarios depend on it), and dense= turns pim-sm
// into the mixed sparse/dense internet of §4: the listed routers run pim-dm,
// the sparse routers next to them are borders, and crash/restart takes a
// border's two halves down and up together.
//
// A script that declares `expect violations` runs with the invariant checker
// attached regardless of RunConfig — the expectation is the scenario's
// recorded verdict. The fault-schedule search (internal/faultsearch) emits
// its minimized counterexamples in exactly this form: the scenario passes
// iff the violation still reproduces, so the corpus under scenarios/found/
// enforces every found bug forever.
//
// A scenario may additionally embed its golden digest after a line holding
// exactly `-- golden --` (txtar-style): `delivered`, `events`, and `stream`
// lines recording the delivery counts, per-kind telemetry event counts, and
// the FNV-64a hash of the canonical captured stream. `pimscript -update`
// regenerates the section; corpus discovery (Corpus, `pimscript -corpus`)
// re-runs every scenario sequentially and on 2 shards and fails on any
// digest drift. See DESIGN.md §15.
package script

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"

	"pim/internal/addr"
	"pim/internal/faults"
	"pim/internal/igmp"
	"pim/internal/netsim"
	"pim/internal/packet"
	"pim/internal/scenario"
	"pim/internal/telemetry"
	"pim/internal/topology"
)

// GoldenMarker separates a scenario's script body from its embedded golden
// digest (txtar-style): everything before the marker line is the script,
// everything after is the recorded digest of the run's canonical telemetry
// stream and delivery counts. `pimscript -update` regenerates the section.
const GoldenMarker = "-- golden --"

// Script is a parsed scenario.
type Script struct {
	stmts []stmt
	// body is the raw script text up to (and excluding) the golden marker,
	// preserved byte-for-byte so -update round-trips.
	body string
	// golden holds the embedded digest lines (nil when the scenario has no
	// golden section yet).
	golden []string
}

// Body returns the raw script text before the golden marker, exactly as
// read, so regeneration preserves comments and formatting.
func (s *Script) Body() string { return s.body }

// Golden returns the embedded digest lines, or nil when the scenario has no
// golden section.
func (s *Script) Golden() []string { return s.golden }

// row is one line of the grammar: a statement or an `at` verb. Parse checks a
// line's operands against its row and every usage error is printed from it,
// so adding a form to the language is adding a row.
type row struct {
	name     string
	synopsis string   // operands, exactly as the package comment's grammar prints them
	min, max int      // positional operand count; max < 0 is unbounded
	keys     []string // the key=value operands the form accepts
	// Statement rows: decl marks a declaration (executed before any ordered
	// statement, wherever it stands), run executes the statement, and verbs,
	// on the `at` row, is the table its <verb> operand selects from.
	decl  bool
	run   func(*runner, *stmt) error
	verbs []row
	// Verb rows: act resolves the operands and returns the action plus the
	// node whose scheduler runs it; a nil node means the root scheduler.
	act func(*runner, *stmt) (fn func(), on *netsim.Node, err error)
}

// statements is the statement table, in the order the grammar lists it.
var statements = []row{
	{name: "topo", synopsis: "random nodes=<n> degree=<f> [seed=<n>] [mindelay=<n>] [maxdelay=<n>] | file <path> | edges <a>-<b>[:<delay>]...",
		min: 1, max: -1, keys: []string{"nodes", "degree", "seed", "mindelay", "maxdelay"}, decl: true, run: (*runner).doTopo},
	{name: "unicast", synopsis: "oracle|dv|ls", min: 1, max: 1, decl: true, run: (*runner).doUnicast},
	{name: "group", synopsis: "<name> [rp <router>...]", min: 1, max: -1, decl: true, run: (*runner).doGroup},
	{name: "faultseed", synopsis: "<n>", min: 1, max: 1, decl: true, run: (*runner).doFaultSeed},
	{name: "host", synopsis: "<name> <router>", min: 2, max: 2, decl: true, run: (*runner).doHost},
	{name: "protocol", synopsis: "<name> [aggregate] [spt=immediate|never|threshold] [prune=<dur>] [timers=fast] [dense=<router>,...]",
		min: 1, max: 2, keys: []string{"spt", "prune", "timers", "dense"}, run: (*runner).deploy},
	{name: "at", synopsis: "<time> <verb> ...", min: 2, max: -1, run: (*runner).doAt, verbs: verbs},
	{name: "run", synopsis: "<duration>", min: 1, max: 1, run: (*runner).doRun},
	{name: "expect", synopsis: "<subject> <op> <value>", min: 3, max: -1, run: (*runner).doExpect},
}

// verbs is the `at` verb table. Globally scoped verbs (link state, loss
// models, crash/restart) return no node and run as root-scheduler actions:
// under sharded execution they fire at epoch barriers with every shard
// quiesced. Verbs that touch a single host (join/leave/send) return that
// host's node and run on its scheduler, so the membership change or packet
// send originates inside its shard exactly as it would sequentially.
var verbs = []row{
	{name: "join", synopsis: "<host> <group>", min: 2, max: 2, act: (*runner).membership},
	{name: "leave", synopsis: "<host> <group>", min: 2, max: 2, act: (*runner).membership},
	{name: "send", synopsis: "<host> <group> [count=<n>] [every=<dur>] [size=<n>]", min: 2, max: 2,
		keys: []string{"count", "every", "size"}, act: (*runner).send},
	{name: "linkdown", synopsis: "<edge>", min: 1, max: 1, act: (*runner).linkState},
	{name: "linkup", synopsis: "<edge>", min: 1, max: 1, act: (*runner).linkState},
	{name: "loss", synopsis: "<edge>|all <rate> [control|data]", min: 2, max: 3, act: (*runner).impair},
	{name: "reorder", synopsis: "<edge>|all <window> [control|data]", min: 2, max: 3, act: (*runner).impair},
	{name: "flap", synopsis: "<edge> [down=<dur>] [up=<dur>] [cycles=<n>]", min: 1, max: 1,
		keys: []string{"down", "up", "cycles"}, act: (*runner).flap},
	{name: "crash", synopsis: "<router>", min: 1, max: 1, act: (*runner).lifecycle},
	{name: "restart", synopsis: "<router>", min: 1, max: 1, act: (*runner).lifecycle},
	{name: "partition", synopsis: "<edge>...", min: 1, max: -1, act: (*runner).split},
	{name: "heal", act: (*runner).split},
}

// subject is one thing an expectation can measure. Every expectation is a
// subject's form followed by `<op> <value>`, compared through operators.
type subject struct {
	form    string // the operands before the tail; bare words are keywords
	dur     bool   // <value> is a duration (compared in microseconds), not a count
	measure func(r *runner, st *stmt, a []string) (got int64, note string, err error)
}

// subjects is the expectation table; the first form a line matches wins. A
// negative measurement means there was nothing to measure: the expectation
// fails whatever its operator, with note as the reason. Otherwise note is
// appended to the failure report.
var subjects = []subject{
	{form: "<host> received <group>", measure: (*runner).received},
	{form: "router <router> state", measure: (*runner).routerState},
	{form: "<host> mean-delay <group>", dur: true, measure: (*runner).meanDelay},
	{form: "violations", measure: (*runner).violationCount},
	{form: "links-with-data", measure: (*runner).linksWithData},
}

// operators is the one comparison table, for counts and durations alike.
var operators = map[string]func(got, want int64) bool{
	">=": func(g, w int64) bool { return g >= w },
	"<=": func(g, w int64) bool { return g <= w },
	"==": func(g, w int64) bool { return g == w },
	"!=": func(g, w int64) bool { return g != w },
	">":  func(g, w int64) bool { return g > w },
	"<":  func(g, w int64) bool { return g < w },
}

// alnum reports whether c may start the key of a key=value operand.
func alnum(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func find(table []row, name string) *row {
	for i := range table {
		if table[i].name == name {
			return &table[i]
		}
	}
	return nil
}

// stmt is one parsed line: its statement row, for `at` its time and verb row,
// and the operands — of the verb, for `at` — split into positional and
// key=value.
type stmt struct {
	line int
	row  *row
	when string
	verb *row
	args []string
	keys []string // key=value operands in source order; kv holds their values
	kv   map[string]string
	// err remembers the first malformed key=value operand a handler read
	// (see keyed), so a handler reads all its keys and checks once.
	err error
}

func (st *stmt) errf(format string, a ...interface{}) error {
	return fmt.Errorf("line %d: %s", st.line, fmt.Sprintf(format, a...))
}

// usage is the error for operands that do not fit the form, spelled from its
// row.
func (st *stmt) usage() error { return st.errf("syntax: %s", st.syntax()) }

func (st *stmt) syntax() string {
	if st.verb != nil {
		return strings.TrimSpace("at <time> " + st.verb.name + " " + st.verb.synopsis)
	}
	return st.row.name + " " + st.row.synopsis
}

// check holds the operands to their row — the verb's, for `at`: no key the
// row does not declare, and a positional count inside its arity.
func (st *stmt) check() error {
	form := st.row
	if st.verb != nil {
		form = st.verb
	}
	for _, k := range st.keys {
		if !slices.Contains(form.keys, k) {
			return st.errf("%s does not take %s= (syntax: %s)", form.name, k, st.syntax())
		}
	}
	if n := len(st.args); n < form.min || (form.max >= 0 && n > form.max) {
		return st.usage()
	}
	return nil
}

// Parse reads a scenario from text. A line equal to GoldenMarker splits the
// file: statements before it, the recorded golden digest after it. Each
// statement is checked against its table row, so an unknown statement or
// verb, a wrong operand count and an undeclared key=value operand are all
// parse errors; operand values are resolved when the script runs.
func Parse(text string) (*Script, error) {
	s := &Script{body: text}
	if body, rest, ok := cutGolden(text); ok {
		s.body = body
		s.golden = []string{} // a present-but-empty section is still a golden
		for _, ln := range strings.Split(rest, "\n") {
			if ln = strings.TrimSpace(ln); ln != "" {
				s.golden = append(s.golden, ln)
			}
		}
	}
	for i, raw := range strings.Split(s.body, "\n") {
		if idx := strings.IndexByte(raw, '#'); idx >= 0 {
			raw = raw[:idx]
		}
		fields := strings.Fields(raw)
		if len(fields) == 0 {
			continue
		}
		st := stmt{line: i + 1, kv: map[string]string{}}
		if st.row = find(statements, fields[0]); st.row == nil {
			return nil, st.errf("unknown statement %q", fields[0])
		}
		// A field is a key=value operand when its key starts with a letter
		// or a digit; comparison operators (>=, ==) stay positional.
		for _, f := range fields[1:] {
			k, v, ok := strings.Cut(f, "=")
			if !ok || k == "" || !alnum(k[0]) {
				st.args = append(st.args, f)
			} else if _, dup := st.kv[k]; dup {
				return nil, st.errf("%s= given twice", k)
			} else {
				st.keys, st.kv[k] = append(st.keys, k), v
			}
		}
		if st.row.verbs != nil {
			if len(st.args) < st.row.min {
				return nil, st.usage()
			}
			if st.verb = find(st.row.verbs, st.args[1]); st.verb == nil {
				return nil, st.errf("unknown action %q", st.args[1])
			}
			st.when, st.args = st.args[0], st.args[2:]
		}
		if err := st.check(); err != nil {
			return nil, err
		}
		s.stmts = append(s.stmts, st)
	}
	return s, nil
}

// cutGolden splits text at the first line that is exactly the golden marker;
// the marker line belongs to neither half.
func cutGolden(text string) (body, golden string, ok bool) {
	for off := 0; off < len(text); {
		end := strings.IndexByte(text[off:], '\n')
		line := text[off:]
		next := len(text)
		if end >= 0 {
			line = text[off : off+end]
			next = off + end + 1
		}
		if line == GoldenMarker {
			return text[:off], text[next:], true
		}
		off = next
	}
	return text, "", false
}

// ParseFile reads a scenario file.
func ParseFile(path string) (*Script, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(string(b))
}

// Result reports a script run.
type Result struct {
	// Failures lists failed expectations.
	Failures []string
	// Log carries informational lines (deployment summary, counters).
	Log []string
	// Delivered maps "<host>/<group>" to reception counts.
	Delivered map[string]int
	// Violations aggregates invariant-checker findings across every lane,
	// sorted by time then router (nil on unchecked runs).
	Violations []telemetry.Violation
	// Events is the canonical captured telemetry stream of a Captured run:
	// per-shard lane buffers concatenated and stable-sorted by (At, Router),
	// identical for any shard count. Every observer (Sampler,
	// ConvergenceProbe, an experiment's own tally) can be fed from it by
	// replaying it into a fresh Bus, so none of them needs to know about lanes.
	Events []telemetry.Event
	// State holds one sample of the deployment's installed entry count, summed
	// over the routers, taken at the end of each `run`. It is a reading, not a
	// fold of Events: a crash drops state without an EntryExpire, and MOSPF's
	// count is not its event population.
	State []int
	// PeakLiveTimers and ShardLoads are the network's own exact counts, read
	// once after the last statement: the scheduler's timer-population
	// high-water mark (summed over shards) and the per-shard execution
	// counters (nil for a sequential run).
	PeakLiveTimers int
	ShardLoads     []netsim.ShardLoad
}

// OK reports whether every expectation held.
func (r *Result) OK() bool { return len(r.Failures) == 0 }

// ExpectsViolations reports whether the script asserts on invariant-checker
// violations (`expect violations ...`). Corpus runners use it to tell
// found-counterexample scenarios — which *record* a violation as their
// verdict — from ordinary scenarios, where any violation is a failure.
func (s *Script) ExpectsViolations() bool {
	for _, st := range s.stmts {
		if st.row.name == "expect" && st.args[0] == "violations" {
			return true
		}
	}
	return false
}

type hostRef struct {
	host   *igmp.Host
	router int
	// delaySum/delayN accumulate delivery latency per group for the
	// mean-delay expectation.
	delaySum map[addr.IP]netsim.Time
	delayN   map[addr.IP]int64
}

type runner struct {
	// cfg is the execution mode RunWith was handed (Checked already forced
	// on where the script or FailFast requires it).
	cfg   RunConfig
	sim   *scenario.Sim
	graph *topology.Graph

	uniMode scenario.UnicastMode
	groups  map[string]addr.IP
	groupRP map[addr.IP][]int // group -> ordered RP/core router indexes
	hosts   map[string]*hostRef
	// dep is the deployment: crash/restart, per-router state and the
	// invariant checkers' findings. It is nil until the protocol statement.
	dep scenario.Deployment
	// lanes[i] is the event stream shard i published on a Captured run. It is
	// appended only by shard i's goroutine, so capture stays race-free under
	// parallel execution.
	lanes [][]telemetry.Event
	// inj is the lazily created fault injector (loss/reorder/flap/partition
	// verbs); faultSeed is the stream seed it is created with (the
	// `faultseed` statement; default 1).
	inj       *faults.Injector
	faultSeed int64

	res *Result
}

// injector returns the script's fault injector, installing it on first use.
// The seed defaults to 1 — script runs are reproducible documents — and the
// `faultseed` statement overrides it, so emitted search counterexamples can
// round-trip the loss/reorder realization that triggered them.
func (r *runner) injector() *faults.Injector {
	if r.inj == nil {
		r.inj = faults.New(r.sim.Net, r.faultSeed)
	}
	return r.inj
}

// RunConfig selects the script execution mode; the zero value is the plain
// sequential-or-sharded run with no observation attached.
type RunConfig struct {
	// Checked attaches the online §3.8 invariant checker, one per shard
	// (forced on when the script declares `expect violations`).
	Checked bool
	// FailFast additionally arms the checker's first-violation halt: the
	// simulation freezes at the violation instant and the rest of the
	// scripted run is skipped. Implies Checked; pins the run to one shard.
	FailFast bool
	// Bus, when non-nil, is an externally supplied event bus whose
	// subscribers (samplers, convergence probes) observe the deployment;
	// subscribe them before calling RunWith. Pins the run to one shard.
	Bus *telemetry.Bus
	// Captured records the event stream on per-shard telemetry lanes and
	// returns the canonical merged stream in Result.Events: lane buffers
	// concatenated and stable-sorted by (At, Router), preserving each
	// router's publication order while normalizing cross-router
	// same-instant interleaving — identical for any shard count, which makes
	// it every equivalence gate's witness.
	Captured bool
	// Shards is the partition count the run executes under (0 or 1 =
	// sequential). Runs that must stay sequential — see RunWith — ignore it.
	Shards int
}

// RunWith is the single execution entrypoint: it runs the script in the
// mode cfg selects and folds every observation — violations, the captured
// canonical stream — into the Result. The zero RunConfig is the plain run.
//
// Sharding: a run executes under cfg.Shards, observed or not — capture and
// the checker ride one telemetry lane per shard. Three things pin it to
// sequential execution instead: an external Bus (one bus, which parallel
// shards would race on), FailFast (a shard goroutine must not halt the root
// scheduler) and a protocol whose recipe says so (scenario.Recipe.Sequential:
// MOSPF's routers share one link-state Domain).
func (s *Script) RunWith(cfg RunConfig) (*Result, error) {
	// A recorded-verdict scenario needs its checker regardless of how the
	// caller invoked it: the violation count is part of the outcome.
	cfg.Checked = cfg.Checked || cfg.FailFast || s.ExpectsViolations()
	r := &runner{
		cfg:       cfg,
		faultSeed: 1,
		groups:    map[string]addr.IP{},
		groupRP:   map[addr.IP][]int{},
		hosts:     map[string]*hostRef{},
		res:       &Result{Delivered: map[string]int{}},
	}
	// Declarations first (topology, unicast mode, groups, hosts), so their
	// position relative to the protocol statement does not matter; then
	// deployment, timed actions, runs and expectations in script order.
	for _, decl := range []bool{true, false} {
		for _, st := range s.stmts {
			if st.row.decl != decl {
				continue
			}
			if err := st.row.run(r, &st); err != nil {
				return nil, err
			}
		}
	}
	for name, h := range r.hosts {
		for gname, g := range r.groups {
			r.res.Delivered[name+"/"+gname] = h.host.Received[g]
		}
	}
	// Canonical captured stream: concatenate the per-shard lane buffers and
	// stable-sort by (At, Router). Within one router all events come from
	// one lane in publication order, which the stable sort preserves.
	for _, buf := range r.lanes {
		r.res.Events = append(r.res.Events, buf...)
	}
	slices.SortStableFunc(r.res.Events, func(x, y telemetry.Event) int {
		if x.At != y.At {
			return cmp.Compare(x.At, y.At)
		}
		return cmp.Compare(x.Router, y.Router)
	})
	if r.dep != nil {
		r.res.Violations = r.dep.Violations()
	}
	if r.sim != nil {
		r.res.PeakLiveTimers, r.res.ShardLoads = r.sim.Net.PeakLiveTimers(), r.sim.Net.ShardLoads()
	}
	return r.res, nil
}

// --- statements ---

func (r *runner) doTopo(st *stmt) error {
	if r.graph != nil {
		return st.errf("duplicate topo")
	}
	// The file and edges forms both end in topology.ParseEdgeList: an edge
	// operand <a>-<b>[:<delay>] is the edge-list line "a b [delay]".
	var list io.Reader
	switch rest := st.args[1:]; st.args[0] {
	case "random":
		nodes, seed, minD := st.intKV("nodes", 0), st.intKV("seed", 1), st.intKV("mindelay", 1)
		degree, maxD := keyed(st, "degree", 4, finite), st.intKV("maxdelay", minD)
		if st.err != nil {
			return st.err
		}
		if nodes <= 0 || len(rest) > 0 {
			return st.usage()
		}
		switch {
		case degree <= 0 || minD < 1 || maxD < minD:
			return st.errf("degree=%g mindelay=%d maxdelay=%d, want degree > 0 and 1 <= mindelay <= maxdelay", degree, minD, maxD)
		case nodes > scenario.MaxRouters || float64(nodes)*degree/2 > scenario.MaxLinks:
			return st.errf("nodes=%d degree=%g is beyond the address plan's %d routers and %d links", nodes, degree, scenario.MaxRouters, scenario.MaxLinks)
		}
		r.graph = topology.Random(topology.GenConfig{
			Nodes: nodes, Degree: degree,
			MinDelay: int64(minD), MaxDelay: int64(maxD),
		}, rand.New(rand.NewSource(int64(seed))))
	case "file":
		if len(rest) != 1 {
			return st.usage()
		}
		f, err := os.Open(rest[0])
		if err != nil {
			return st.errf("%v", err)
		}
		defer f.Close()
		list = f
	case "edges":
		if len(rest) == 0 {
			return st.usage()
		}
		var text strings.Builder
		for _, spec := range rest {
			ends, delay, colon := strings.Cut(spec, ":")
			a, b, dash := strings.Cut(ends, "-")
			if !dash || (colon && delay == "") {
				return st.errf("bad edge %q (want <a>-<b>[:<delay>])", spec)
			}
			fmt.Fprintln(&text, a, b, delay)
		}
		list = strings.NewReader(text.String())
	default:
		return st.errf("unknown topo form %q", st.args[0])
	}
	if list != nil {
		if len(st.keys) > 0 {
			return st.usage()
		}
		g, err := topology.ParseEdgeList(list, scenario.MaxRouters)
		if err != nil {
			return st.errf("%v", err)
		}
		r.graph = g
	}
	if err := scenario.CheckGraph(r.graph); err != nil {
		return st.errf("%v", err)
	}
	r.sim = scenario.Build(r.graph)
	return nil
}

func (r *runner) doFaultSeed(st *stmt) error {
	n, err := strconv.ParseInt(st.args[0], 10, 64)
	if err != nil {
		return st.errf("bad faultseed %q", st.args[0])
	}
	r.faultSeed = n
	return nil
}

var unicastModes = map[string]scenario.UnicastMode{
	"oracle": scenario.UseOracle, "dv": scenario.UseDV, "ls": scenario.UseLS,
}

func (r *runner) doUnicast(st *stmt) error {
	mode, ok := unicastModes[st.args[0]]
	if !ok {
		return st.errf("unknown unicast mode %q", st.args[0])
	}
	r.uniMode = mode
	return nil
}

func (r *runner) doGroup(st *stmt) error {
	name := st.args[0]
	if _, dup := r.groups[name]; dup {
		return st.errf("duplicate group %q", name)
	}
	var rps []string
	if len(st.args) > 1 {
		if len(st.args) < 3 || st.args[1] != "rp" {
			return st.usage()
		}
		rps = st.args[2:]
	}
	g := addr.GroupForIndex(len(r.groups))
	r.groups[name] = g
	for _, arg := range rps {
		idx, err := r.routerIndex(st, arg)
		if err != nil {
			return err
		}
		r.groupRP[g] = append(r.groupRP[g], idx)
	}
	return nil
}

func (r *runner) doHost(st *stmt) error {
	if r.sim == nil {
		return st.errf("host before topo")
	}
	name := st.args[0]
	if _, dup := r.hosts[name]; dup {
		return st.errf("duplicate host %q", name)
	}
	idx, err := r.routerIndex(st, st.args[1])
	if err != nil {
		return err
	}
	ref := &hostRef{
		host: r.sim.AddHost(idx), router: idx,
		delaySum: map[addr.IP]netsim.Time{}, delayN: map[addr.IP]int64{},
	}
	// Latency is read off the host's own scheduler clock: under sharded
	// execution the callback fires on the host's shard, where the root
	// clock may still sit at the window base.
	hostNode := ref.host.Node
	ref.host.OnData = func(g addr.IP, pkt *packet.Packet) {
		if d, ok := scenario.Latency(hostNode.Sched().Now(), pkt); ok {
			ref.delaySum[g] += d
			ref.delayN[g]++
		}
	}
	r.hosts[name] = ref
	return nil
}

// observe returns the deployment options cfg selects — the event lanes and
// the checker — after subscribing the capture buffers. An external Bus is the
// one lane of its (sequential) run; a captured run without one gets a fresh
// lane per shard; a run that is only checked leaves the lanes to the
// deployment.
func (r *runner) observe() []scenario.DeployOption {
	var lanes []*telemetry.Bus
	if r.cfg.Bus != nil {
		lanes = []*telemetry.Bus{r.cfg.Bus}
	} else if r.cfg.Captured {
		for range r.sim.Net.ShardCount() {
			lanes = append(lanes, telemetry.NewBus())
		}
	}
	if r.cfg.Captured {
		r.lanes = make([][]telemetry.Event, len(lanes))
		for i, lane := range lanes {
			lane.Subscribe(func(ev telemetry.Event) { r.lanes[i] = append(r.lanes[i], ev) })
		}
	}
	opts := []scenario.DeployOption{scenario.WithTelemetry(lanes...)}
	if r.cfg.FailFast {
		opts = append(opts, scenario.WithFailFast())
	} else if r.cfg.Checked {
		opts = append(opts, scenario.WithInvariantChecker())
	}
	return opts
}

func (r *runner) deploy(st *stmt) error {
	if r.sim == nil {
		return st.errf("protocol before topo")
	}
	if r.dep != nil {
		return st.errf("duplicate protocol statement")
	}
	if len(st.args) == 2 && st.args[1] != "aggregate" {
		return st.usage()
	}
	if t, ok := st.kv["timers"]; ok && t != "fast" {
		return st.errf("unknown timers=%q (want fast)", t)
	}
	// The statement is a scenario.Recipe written out: the protocol name, the
	// groups' RP lists (CBT takes the first as its core), and the values the
	// key=value operands vary. timers=fast selects the recipe's fast
	// soft-state grade; fault scenarios — hand-written and search-emitted
	// alike — depend on it.
	rec := scenario.Recipe{
		Protocol:   st.args[0],
		Anchors:    map[addr.IP][]addr.IP{},
		PruneHold:  st.durKV("prune", 0),
		SPT:        st.kv["spt"],
		Aggregate:  len(st.args) == 2,
		FastTimers: st.kv["timers"] == "fast",
	}
	if st.err != nil {
		return st.err
	}
	if dense, ok := st.kv["dense"]; ok {
		for _, part := range strings.Split(dense, ",") {
			idx, err := r.routerIndex(st, part)
			if err != nil {
				return err
			}
			rec.Dense = append(rec.Dense, idx)
		}
	}
	// Shard before the unicast substrate schedules its first event, unless
	// the run is one RunWith lists as sequential.
	if r.cfg.Bus == nil && !r.cfg.FailFast && !rec.Sequential() {
		r.sim.AutoShardN(r.cfg.Shards)
	}
	opts := r.observe()
	r.sim.FinishUnicast(r.uniMode)
	r.sim.Run(r.sim.ConvergenceTime())

	for _, g := range r.groups {
		rec.Anchors[g] = r.rpAddrs(g)
	}
	dep, err := r.sim.DeployRecipe(rec, opts...)
	if err != nil {
		return st.errf("%v", err)
	}
	r.dep = dep
	// Neighbor discovery before scripted events begin.
	r.sim.Run(2 * netsim.Second)
	r.res.Log = append(r.res.Log,
		fmt.Sprintf("deployed %s on %d routers (%d links)", rec.Protocol, r.graph.N(), r.graph.M()))
	return nil
}

// rpAddrs returns the group's RP candidates as addresses, in declared order.
func (r *runner) rpAddrs(g addr.IP) []addr.IP {
	var rps []addr.IP
	for _, idx := range r.groupRP[g] {
		rps = append(rps, r.sim.RouterAddr(idx))
	}
	return rps
}

// doAt schedules one timed action, <time> after the script clock as it
// stands at the statement.
func (r *runner) doAt(st *stmt) error {
	if r.dep == nil {
		return st.errf("at before protocol")
	}
	when, err := parseDuration(st.when)
	if err != nil {
		return st.errf("bad time %q", st.when)
	}
	fn, on, err := st.verb.act(r, st)
	if err != nil {
		return err
	}
	sched := r.sim.Net.Sched
	if on != nil {
		sched = on.Sched()
	}
	sched.At(sched.Now()+when, fn)
	return nil
}

func (r *runner) doRun(st *stmt) error {
	if r.dep == nil {
		return st.errf("run before protocol")
	}
	d, err := parseDuration(st.args[0])
	if err != nil {
		return st.errf("bad duration %q", st.args[0])
	}
	r.sim.Run(d)
	total := 0
	for i := range r.graph.N() {
		total += r.dep.StateAt(i)
	}
	r.res.State = append(r.res.State, total)
	return nil
}

func (r *runner) doExpect(st *stmt) error {
	if r.dep == nil {
		return st.errf("expect before protocol")
	}
	for _, sub := range subjects {
		n := sub.match(st.args)
		if n < 0 {
			continue
		}
		what, op, val := strings.Join(st.args[:n], " "), st.args[n], st.args[n+1]
		holds, ok := operators[op]
		if !ok {
			return st.errf("bad operator %q", op)
		}
		want, err := strconv.ParseInt(val, 10, 64)
		if sub.dur {
			var d netsim.Time
			d, err = parseDuration(val)
			want = int64(d)
		}
		if err != nil {
			return st.errf("bad value %q", val)
		}
		got, note, err := sub.measure(r, st, st.args[:n])
		if err != nil {
			return err
		}
		if got < 0 {
			r.res.Failures = append(r.res.Failures, st.errf("%s: %s", what, note).Error())
		} else if !holds(got, want) {
			r.res.Failures = append(r.res.Failures, st.errf("%s = %d, want %s %d%s", what, got, op, want, note).Error())
		}
		return nil
	}
	return st.errf("unknown expect form %v", st.args)
}

// match returns how many leading operands of a are the subject's form — a
// must be that form plus the `<op> <value>` tail, every keyword of the form
// in place — or -1.
func (sub subject) match(a []string) int {
	words := strings.Fields(sub.form)
	if len(a) != len(words)+2 {
		return -1
	}
	for i, w := range words {
		if w[0] != '<' && w != a[i] {
			return -1
		}
	}
	return len(words)
}

// --- expectation subjects ---

func (r *runner) received(st *stmt, a []string) (int64, string, error) {
	h, g, err := r.hostGroup(st, a[0], a[2])
	if err != nil {
		return 0, "", err
	}
	return int64(h.host.Received[g]), "", nil
}

func (r *runner) routerState(st *stmt, a []string) (int64, string, error) {
	idx, err := r.routerIndex(st, a[1])
	if err != nil {
		return 0, "", err
	}
	return int64(r.dep.StateAt(idx)), "", nil
}

func (r *runner) meanDelay(st *stmt, a []string) (int64, string, error) {
	h, g, err := r.hostGroup(st, a[0], a[2])
	if err != nil {
		return 0, "", err
	}
	if h.delayN[g] == 0 {
		return -1, "nothing delivered", nil
	}
	return int64(h.delaySum[g]) / h.delayN[g], "", nil
}

func (r *runner) violationCount(*stmt, []string) (int64, string, error) {
	vs, note := r.dep.Violations(), ""
	if len(vs) > 0 {
		note = " (first: " + vs[0].String() + ")"
	}
	return int64(len(vs)), note, nil
}

func (r *runner) linksWithData(*stmt, []string) (int64, string, error) {
	var n int64
	for _, l := range r.sim.EdgeLinks {
		if r.sim.Net.Stats.PerLink[l.ID].DataPackets > 0 {
			n++
		}
	}
	return n, "", nil
}

// --- at verbs ---

func (r *runner) membership(st *stmt) (func(), *netsim.Node, error) {
	h, g, err := r.hostGroup(st, st.args[0], st.args[1])
	if err != nil {
		return nil, nil, err
	}
	if st.verb.name == "leave" {
		return func() { h.host.Leave(g) }, h.host.Node, nil
	}
	rps := r.rpAddrs(g)
	return func() { h.host.Join(g, rps...) }, h.host.Node, nil
}

func (r *runner) send(st *stmt) (func(), *netsim.Node, error) {
	h, g, err := r.hostGroup(st, st.args[0], st.args[1])
	if err != nil {
		return nil, nil, err
	}
	count, size, every := st.intKV("count", 1), st.intKV("size", 128), st.durKV("every", netsim.Second)
	if st.err != nil {
		return nil, nil, st.err
	}
	if size < 8 || size > scenario.MaxDataSize {
		return nil, nil, st.errf("size=%d is outside 8..%d", size, scenario.MaxDataSize)
	}
	sched, sent := h.host.Node.Sched(), 0
	var pump func()
	pump = func() {
		scenario.SendData(h.host, g, size)
		if sent++; sent < count {
			sched.After(every, pump)
		}
	}
	return pump, h.host.Node, nil
}

func (r *runner) linkState(st *stmt) (func(), *netsim.Node, error) {
	link, err := r.edgeLink(st, st.args[0])
	if err != nil {
		return nil, nil, err
	}
	up := st.verb.name == "linkup"
	return func() { r.sim.Net.SetLinkUp(link, up) }, nil, nil
}

// classes are the optional last operand of loss and reorder.
var classes = map[string]faults.Class{"control": faults.ControlOnly, "data": faults.DataOnly}

// impair serves loss and reorder: a link or all of them, a rate or a window,
// and the message class the model applies to.
func (r *runner) impair(st *stmt) (func(), *netsim.Node, error) {
	var link *netsim.Link
	if st.args[0] != "all" {
		var err error
		if link, err = r.edgeLink(st, st.args[0]); err != nil {
			return nil, nil, err
		}
	}
	class := faults.All
	if len(st.args) == 3 {
		var ok bool
		if class, ok = classes[st.args[2]]; !ok {
			return nil, nil, st.errf("bad %s class %q (want control|data)", st.verb.name, st.args[2])
		}
	}
	in := r.injector()
	if st.verb.name == "reorder" {
		window, err := parseDuration(st.args[1])
		if err != nil {
			return nil, nil, st.errf("bad reorder window %q", st.args[1])
		}
		return func() { in.SetReorder(link, window, class) }, nil, nil
	}
	rate, err := finite(st.args[1])
	if err != nil || rate < 0 || rate > 1 {
		return nil, nil, st.errf("bad loss rate %q (want 0..1)", st.args[1])
	}
	return func() { in.SetBernoulli(link, rate, class) }, nil, nil
}

func (r *runner) flap(st *stmt) (func(), *netsim.Node, error) {
	link, err := r.edgeLink(st, st.args[0])
	if err != nil {
		return nil, nil, err
	}
	down, up, cycles := st.durKV("down", 5*netsim.Second), st.durKV("up", 5*netsim.Second), st.intKV("cycles", 1)
	if st.err != nil {
		return nil, nil, st.err
	}
	in := r.injector()
	return func() { in.Flap(link, 0, down, up, cycles) }, nil, nil
}

func (r *runner) lifecycle(st *stmt) (func(), *netsim.Node, error) {
	idx, err := r.routerIndex(st, st.args[0])
	if err != nil {
		return nil, nil, err
	}
	if st.verb.name == "crash" {
		return func() { r.dep.Crash(idx) }, nil, nil
	}
	return func() { r.dep.Restart(idx) }, nil, nil
}

// split serves partition and heal.
func (r *runner) split(st *stmt) (func(), *netsim.Node, error) {
	var links []*netsim.Link
	for _, spec := range st.args {
		link, err := r.edgeLink(st, spec)
		if err != nil {
			return nil, nil, err
		}
		links = append(links, link)
	}
	in := r.injector()
	if st.verb.name == "heal" {
		return in.Heal, nil, nil
	}
	return func() { in.Partition(links...) }, nil, nil
}

// --- operand resolvers ---

func (r *runner) routerIndex(st *stmt, s string) (int, error) {
	idx, err := strconv.Atoi(strings.TrimPrefix(s, "r"))
	if err != nil || r.graph == nil || idx < 0 || idx >= r.graph.N() {
		return 0, st.errf("bad router %q", s)
	}
	return idx, nil
}

// edgeLink resolves a backbone edge index to its link.
func (r *runner) edgeLink(st *stmt, s string) (*netsim.Link, error) {
	edge, err := strconv.Atoi(s)
	if err != nil || edge < 0 || edge >= len(r.sim.EdgeLinks) {
		return nil, st.errf("bad edge %q", s)
	}
	return r.sim.EdgeLinks[edge], nil
}

func (r *runner) hostGroup(st *stmt, hname, gname string) (*hostRef, addr.IP, error) {
	h, ok := r.hosts[hname]
	if !ok {
		return nil, 0, st.errf("unknown host %q", hname)
	}
	g, ok := r.groups[gname]
	if !ok {
		return nil, 0, st.errf("unknown group %q", gname)
	}
	return h, g, nil
}

// keyed reads the key=value operand key through parse, def when it is absent.
// The first malformed value is remembered in st.err (and def returned), so a
// handler reads every key it takes and checks st.err once.
func keyed[T any](st *stmt, key string, def T, parse func(string) (T, error)) T {
	v, ok := st.kv[key]
	if !ok {
		return def
	}
	x, err := parse(v)
	if err != nil {
		if st.err == nil {
			st.err = st.errf("bad %s=%q", key, v)
		}
		return def
	}
	return x
}

func (st *stmt) intKV(key string, def int) int { return keyed(st, key, def, strconv.Atoi) }

func (st *stmt) durKV(key string, def netsim.Time) netsim.Time {
	return keyed(st, key, def, parseDuration)
}

// finite parses a float operand, refusing NaN and ±Inf: ParseFloat reads both
// spellings, and neither is a rate, a degree or a span of time.
func finite(s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("%q is not finite", s)
	}
	return f, err
}

// maxDuration bounds every scripted duration. Durations are read as float64,
// which is exact to the microsecond only below 2^53 µs (285 years); and a
// thousand spans that long still add up inside netsim.Time, where one
// overflowing sum would silently schedule into the past.
const maxDuration = 1 << 53

// durationUnits are the suffixes parseDuration knows, longest first; the
// empty suffix (a bare number, in seconds) matches last.
var durationUnits = []struct {
	suffix string
	unit   netsim.Time
}{{"ms", netsim.Millisecond}, {"s", netsim.Second}, {"m", 60 * netsim.Second}, {"", netsim.Second}}

// parseDuration accepts 150ms / 2s / 3m / bare-seconds forms of a finite,
// non-negative span up to maxDuration, rounded to the nearest microsecond:
// a fractional millisecond such as 1.001ms scales to 1000.9999…, which must
// read as the 1 001 µs FormatDuration wrote.
func parseDuration(s string) (netsim.Time, error) {
	for _, u := range durationUnits {
		num, ok := strings.CutSuffix(s, u.suffix)
		if !ok {
			continue
		}
		f, err := finite(num)
		if us := f * float64(u.unit); err == nil && us >= 0 && us <= maxDuration {
			return netsim.Time(math.Round(us)), nil
		}
		break
	}
	return 0, fmt.Errorf("bad duration %q", s)
}

// FormatDuration writes a simulated time as a duration parseDuration reads
// back exactly: whole seconds as <n>s, anything finer as (fractional)
// milliseconds, the grammar's finest unit.
func FormatDuration(t netsim.Time) string {
	if t%netsim.Second == 0 {
		return fmt.Sprintf("%ds", t/netsim.Second)
	}
	return fmt.Sprintf("%gms", float64(t)/float64(netsim.Millisecond))
}
