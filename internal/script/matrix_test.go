package script

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pim/internal/netsim"
	"pim/internal/scenario"
)

// protocolSwap rewrites a parsed script to run under another protocol: its
// `protocol` line names proto and keeps the operands that protocol's recipe
// accepts (dense= is pim-sm's alone), a group that declares no RP gets r0
// when proto anchors groups at one, and the `expect` lines go. The golden
// section is not part of the body, so it goes too.
func protocolSwap(s *Script, proto string) string {
	lines := strings.Split(s.Body(), "\n")
	anchored := scenario.Recipe{Protocol: proto}.DeclaresRP()
	for _, st := range s.stmts {
		ln := &lines[st.line-1]
		switch st.row.name {
		case "expect":
			*ln = ""
		case "group":
			if len(st.args) == 1 && anchored {
				*ln = "group " + st.args[0] + " rp r0"
			}
		case "protocol":
			f := append([]string{"protocol", proto}, st.args[1:]...)
			for _, k := range st.keys {
				if k != "dense" || proto == "pim-sm" {
					f = append(f, k+"="+st.kv[k])
				}
			}
			*ln = strings.Join(f, " ")
		}
	}
	return strings.Join(lines, "\n")
}

// faultFree reports whether every timed action of the script is a join, a
// leave or a send: no link, loss, reorder, crash or partition fault.
func faultFree(s *Script) bool {
	for _, st := range s.stmts {
		if st.verb != nil && !slices.Contains([]string{"join", "leave", "send"}, st.verb.name) {
			return false
		}
	}
	return true
}

// unicastSwap rewrites a parsed script's `unicast` line to name substrate,
// keeping everything else, its expectations included.
func unicastSwap(s *Script, substrate string) string {
	lines := strings.Split(s.Body(), "\n")
	for _, st := range s.stmts {
		if st.row.name == "unicast" {
			lines[st.line-1] = "unicast " + substrate
		}
	}
	return strings.Join(lines, "\n")
}

// declares reports whether s has a row statement whose first operand is arg.
func declares(s *Script, row, arg string) bool {
	return slices.ContainsFunc(s.stmts, func(st stmt) bool { return st.row.name == row && st.args[0] == arg })
}

// matrixRow renders one cell of the matrix golden: "<script> <variant>",
// each host's delivered count in key order, the violation count, and each
// failed expectation quoted.
func matrixRow(cell string, res *Result) string {
	f := []string{cell}
	var hosts []string
	for h := range res.Delivered {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, h := range hosts {
		f = append(f, fmt.Sprintf("%s=%d", h, res.Delivered[h]))
	}
	f = append(f, fmt.Sprintf("violations=%d", len(res.Violations)))
	for _, s := range res.Failures {
		f = append(f, "failed="+strconv.Quote(s))
	}
	return strings.Join(f, " ")
}

// matrixGolden is testdata/matrix.golden as read: its comment and `defect`
// lines, kept verbatim by -update, the cells the defect lines excuse, and
// each script's rows.
type matrixGolden struct {
	kept    []string
	defects map[string]bool     // by "<script> <variant>"
	rows    map[string][]string // by script, in file order
}

func parseMatrix(text string) (*matrixGolden, error) {
	m := &matrixGolden{defects: map[string]bool{}, rows: map[string][]string{}}
	for _, ln := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(ln)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
		case f[0] == "defect" && len(f) == 4:
			m.defects[f[1]+" "+f[2]] = true
		case f[0] == "defect":
			return nil, fmt.Errorf("%q: want defect <script> <variant> <ROADMAP item>", ln)
		default:
			m.rows[f[0]] = append(m.rows[f[0]], ln)
			continue
		}
		m.kept = append(m.kept, ln)
	}
	return m, nil
}

// render is the golden -update writes: the kept lines, then rows. It writes
// no defect line of its own, so a regeneration excuses nothing new.
func (m *matrixGolden) render(rows []string) string {
	return strings.Join(append(slices.Clone(m.kept), rows...), "\n") + "\n"
}

// judge fails a cell that disagrees without a defect line, and a defect
// line whose cell agrees: the fix of a defect deletes its line.
func (m *matrixGolden) judge(cell string, disagree []string) error {
	switch {
	case len(disagree) > 0 && !m.defects[cell]:
		return fmt.Errorf("%s: %s", cell, strings.Join(disagree, "; "))
	case len(disagree) == 0 && m.defects[cell]:
		return fmt.Errorf("%s agrees; delete its defect line", cell)
	}
	return nil
}

// stale lists the defect lines that name no row.
func (m *matrixGolden) stale(rows []string) []string {
	var out []string
	for cell := range m.defects {
		if !slices.ContainsFunc(rows, func(r string) bool { return strings.HasPrefix(r, cell+" ") }) {
			out = append(out, cell)
		}
	}
	sort.Strings(out)
	return out
}

var matrixPath = filepath.Join("testdata", "matrix.golden")

// matrixFile is matrix.golden as the test binary started with it; -update
// rewrites it only once every row is known.
var matrixFile = sync.OnceValues(func() (string, error) {
	text, err := os.ReadFile(matrixPath)
	if err != nil && *updateGolden {
		return "", nil
	}
	return string(text), err
})

func loadMatrix(t *testing.T) (*matrixGolden, string) {
	t.Helper()
	text, err := matrixFile()
	if err != nil {
		t.Fatal(err)
	}
	m, err := parseMatrix(text)
	if err != nil {
		t.Fatal(err)
	}
	return m, text
}

// corpusFile is one committed corpus file and its runs. Each run is made
// once per test binary, by whichever test asks for it first, so the tests
// below are views of one pass over the corpus, not a pass each.
type corpusFile struct {
	path, name string // name is the path under scenarios/
	s          *Script
	// written is the run `pimscript -corpus` makes: captured and checked.
	written func() (*Result, error)
	// variants are the checked runs under each of scenario.ProtocolNames()
	// (protocolSwap), then, for a file over the oracle without MOSPF (which
	// reads the oracle's trees), over `dv` and `ls` (unicastSwap).
	variants func() ([]variant, error)
}

type variant struct {
	name string
	res  *Result
}

// substrates reports whether the file also runs over dv and ls.
func (f *corpusFile) substrates() bool {
	return declares(f.s, "unicast", "oracle") && !declares(f.s, "protocol", "mospf")
}

// rows renders the file's cells of the matrix golden.
func (f *corpusFile) rows(vs []variant) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = matrixRow(f.name+" "+v.name, v.res)
	}
	return out
}

var corpus = sync.OnceValues(func() ([]*corpusFile, error) {
	paths, err := Discover("../../scenarios")
	if err != nil {
		return nil, err
	}
	var files []*corpusFile
	for _, path := range paths {
		s, err := ParseFile(path)
		if err != nil {
			return nil, err
		}
		f := &corpusFile{path: path, name: strings.TrimPrefix(path, "../../scenarios/"), s: s}
		f.written = sync.OnceValues(func() (*Result, error) { return s.RunWith(corpusRun) })
		f.variants = sync.OnceValues(func() ([]variant, error) {
			srcs := map[string]string{}
			names := scenario.ProtocolNames()
			for _, proto := range names {
				srcs[proto] = protocolSwap(s, proto)
			}
			if f.substrates() {
				for _, sub := range []string{"dv", "ls"} {
					names = append(names, sub)
					srcs[sub] = unicastSwap(s, sub)
				}
			}
			var vs []variant
			for _, name := range names {
				sw, err := Parse(srcs[name])
				if err != nil {
					return nil, fmt.Errorf("%s: %v", name, err)
				}
				res, err := sw.RunWith(RunConfig{Checked: true})
				if err != nil {
					return nil, fmt.Errorf("%s: %v", name, err)
				}
				vs = append(vs, variant{name, res})
			}
			return vs, nil
		})
		files = append(files, f)
	}
	return files, nil
})

func corpusFiles(t *testing.T) []*corpusFile {
	t.Helper()
	files, err := corpus()
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func (f *corpusFile) mustWritten(t *testing.T) *Result {
	t.Helper()
	res, err := f.written()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (f *corpusFile) mustVariants(t *testing.T) []variant {
	t.Helper()
	vs, err := f.variants()
	if err != nil {
		t.Fatal(err)
	}
	return vs
}

// TestMain turns on poison-on-release for the whole test binary, once, before
// any (parallel) test builds a simulation: every scenario this package runs
// executes with released frames scribbled to 0xDB. Poison is the one
// process-global left in netsim, so it is never flipped inside a test.
func TestMain(m *testing.M) {
	netsim.SetPoisonFrames(true)
	os.Exit(m.Run())
}

// TestScenariosPoisonedPool enforces the borrowed-frame ownership contract
// (DESIGN.md §13) over every corpus file: with released frames poisoned, any
// handler that retained a borrowed packet, payload, or decoded alias past its
// HandlePacket call reads garbage — and the run's digest diverges from the
// embedded golden, which `pimscript -update` recorded in a process that never
// poisons. A matching digest means no protocol engine reads a frame after its
// fan-out completed.
func TestScenariosPoisonedPool(t *testing.T) {
	if !netsim.PoisonFrames() {
		t.Fatal("poison-on-release is off; TestMain must enable it")
	}
	for _, f := range corpusFiles(t) {
		t.Run(filepath.Base(f.path), func(t *testing.T) {
			t.Parallel()
			if f.s.Golden() == nil {
				t.Fatalf("no embedded golden; run `pimscript -update %s`", f.path)
			}
			res := f.mustWritten(t)
			total := 0
			for _, n := range res.Delivered {
				total += n
			}
			if len(res.Events) == 0 && total == 0 {
				t.Fatal("no telemetry events and no deliveries; the check is vacuous")
			}
			if diff := diffDigest(f.s.Golden(), DigestLines(res)); diff != "" {
				t.Errorf("digest diverged under poison (a stale frame read, or run `pimscript -update %s` if intended): %s", f.path, diff)
			}
		})
	}
}

// TestScenariosUpholdInvariants: every corpus file, run as written with the
// checker on, passes its expectations and keeps the §3.8 invariants unless it
// records violations.
func TestScenariosUpholdInvariants(t *testing.T) {
	for _, f := range corpusFiles(t) {
		t.Run(filepath.Base(f.path), func(t *testing.T) {
			t.Parallel()
			res := f.mustWritten(t)
			for _, s := range res.Failures {
				t.Errorf("expectation failed: %s", s)
			}
			if !f.s.ExpectsViolations() {
				for _, v := range res.Violations {
					t.Errorf("invariant violation: %s", v)
				}
			}
		})
	}
}

// TestEveryScenarioIsObserved: a captured run of every corpus file publishes
// events. A deployment nothing observes would record the hash of zero events
// as its golden stream (FNV-64a's offset basis) and give the invariant checker
// nothing to check, so its digest could not move whatever the run did.
func TestEveryScenarioIsObserved(t *testing.T) {
	for _, f := range corpusFiles(t) {
		if len(f.mustWritten(t).Events) == 0 {
			t.Errorf("%s: a captured run published no events", f.path)
		}
	}
}

// TestCorpusProtocolSwap: the paper's comparison (§1.2) assumes every
// protocol delivers the same packets and differs only in cost. Every
// fault-free corpus file runs under each of scenario.ProtocolNames(), and
// each host must receive the count most of the six give — membership changes
// included, since after one join latency the receiver-initiated protocols owe
// what the flood protocols deliver. A fault file's protocol rows are recorded
// in matrix.golden, not compared. A cell that disagrees needs a `defect` line
// there.
func TestCorpusProtocolSwap(t *testing.T) {
	m, _ := loadMatrix(t)
	free := 0
	for _, f := range corpusFiles(t) {
		if !faultFree(f.s) {
			continue
		}
		free++
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			got := map[string]map[string]int{}
			for _, v := range f.mustVariants(t)[:len(scenario.ProtocolNames())] {
				got[v.name] = v.res.Delivered
			}
			owed := map[string]int{}
			for host := range got["pim-sm"] {
				votes, most := map[int]int{}, 0
				for _, d := range got {
					votes[d[host]]++
				}
				for n, v := range votes {
					if v > most || v == most && n > owed[host] {
						owed[host], most = n, v
					}
				}
			}
			for _, proto := range scenario.ProtocolNames() {
				var disagree []string
				if !maps.Equal(got[proto], owed) {
					disagree = append(disagree, fmt.Sprintf("delivers %v, most protocols %v", got[proto], owed))
				}
				if err := m.judge(f.name+" "+proto, disagree); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if free != 12 {
		t.Errorf("%d fault-free corpus files, want 12: the agreement checks would go vacuous", free)
	}
}

// TestCorpusUnicastSwap: PIM consumes unicast tables "independent of the
// underlying unicast routing" (§2), so every corpus file that runs over the
// oracle without MOSPF also runs, checked, over `dv` and `ls`: each keeps its
// expectations with no violation it does not record, and a fault-free one
// delivers the as-written run's per-host counts. A fault file's counts may
// differ: a protocol reroutes only once it has converged. A cell that fails
// needs a `defect` line in matrix.golden.
func TestCorpusUnicastSwap(t *testing.T) {
	m, _ := loadMatrix(t)
	swapped := 0
	for _, f := range corpusFiles(t) {
		if !f.substrates() {
			continue
		}
		swapped++
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			oracle := f.mustWritten(t).Delivered
			for _, v := range f.mustVariants(t)[len(scenario.ProtocolNames()):] {
				disagree := slices.Clone(v.res.Failures)
				if !f.s.ExpectsViolations() && len(v.res.Violations) > 0 {
					disagree = append(disagree, fmt.Sprintf("%d invariant violations, the first %s", len(v.res.Violations), v.res.Violations[0]))
				}
				if faultFree(f.s) && !maps.Equal(v.res.Delivered, oracle) {
					disagree = append(disagree, fmt.Sprintf("delivers %v, the oracle %v", v.res.Delivered, oracle))
				}
				if err := m.judge(f.name+" "+v.name, disagree); err != nil {
					t.Error(err)
				}
			}
		})
	}
	if swapped != 21 {
		t.Errorf("%d corpus files run over the oracle without MOSPF, want 21", swapped)
	}
}

// TestCorpusMatrix records the corpus cross-product: each file's variant
// runs are its rows of testdata/matrix.golden — per-host delivered counts,
// the violation count and each failed expectation. A file's rows must match
// the golden's, and every `defect` line must name a row. -update rewrites the
// rows and keeps the comment and defect lines verbatim; it writes no defect
// line, so a disagreement TestCorpusProtocolSwap or TestCorpusUnicastSwap
// finds still fails after a regeneration.
func TestCorpusMatrix(t *testing.T) {
	m, text := loadMatrix(t)
	files := corpusFiles(t)
	rows := make([][]string, len(files)) // each subtest fills its own
	for i, f := range files {
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			out := f.rows(f.mustVariants(t))
			if !*updateGolden {
				if diff := diffDigest(m.rows[f.name], out); diff != "" {
					t.Errorf("rows drifted from %s (rerun with -update if intended): %s", matrixPath, diff)
				}
			}
			rows[i] = out
		})
	}
	// Runs once every parallel subtest is done.
	t.Cleanup(func() {
		var all []string
		for _, r := range rows {
			if r == nil {
				return // a file stopped before its rows; its subtest says why
			}
			all = append(all, r...)
		}
		for _, cell := range m.stale(all) {
			t.Errorf("defect line %s names no cell", cell)
		}
		want := m.render(all)
		if *updateGolden {
			if err := os.WriteFile(matrixPath, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if !t.Failed() && want != text {
			t.Errorf("%s drifted (rerun with -update if intended): %s", matrixPath,
				diffDigest(strings.Split(text, "\n"), strings.Split(want, "\n")))
		}
	})
}

// TestMatrixGoldenMerge: -update keeps the comment and defect lines
// verbatim, replaces every row and writes no defect line, and judge fails a
// disagreement without a line, a line without a disagreement, and a line
// that names no cell; rows are grouped by script.
func TestMatrixGoldenMerge(t *testing.T) {
	old := "# cells\ndefect a.pim dv  8\na.pim dv x/G0=1 violations=0\ngone.pim ls violations=0\n"
	m, err := parseMatrix(old)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.rows["a.pim"]; !slices.Equal(got, []string{"a.pim dv x/G0=1 violations=0"}) {
		t.Errorf("a.pim's rows = %q", got)
	}
	rows := []string{"a.pim dv x/G0=2 violations=0", "b.pim ls x/G0=3 violations=1"}
	want := "# cells\ndefect a.pim dv  8\n" + strings.Join(rows, "\n") + "\n"
	if got := m.render(rows); got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
	if err := m.judge("a.pim dv", []string{"delivers 2"}); err != nil {
		t.Errorf("an excused disagreement fails: %v", err)
	}
	if m.judge("a.pim dv", nil) == nil {
		t.Error("a defect line whose cell agrees passes")
	}
	if m.judge("b.pim ls", []string{"1 invariant violations"}) == nil {
		t.Error("a disagreement without a defect line passes")
	}
	if err := m.judge("b.pim ls", nil); err != nil {
		t.Errorf("an agreeing cell fails: %v", err)
	}
	if got := m.stale(rows[1:]); !slices.Equal(got, []string{"a.pim dv"}) {
		t.Errorf("stale = %v, want the defect line with no row", got)
	}
	if _, err := parseMatrix("defect a.pim dv\n"); err == nil {
		t.Error("a defect line without its ROADMAP item parses")
	}
}
