// Corpus discovery: every scenario under a root directory is a
// self-verifying document. Each file embeds its golden digest after a
// `-- golden --` marker (see Parse), and Corpus re-runs every file, requiring
// the scripted expectations, the §3.8 invariants, and the embedded digest to
// hold. One drift anywhere (a changed delivery count, a new telemetry
// event, a reordered stream) fails the corpus with a pointer to
// `pimscript -update`.
package script

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pim/internal/telemetry"
)

// corpusRun is the one configuration a corpus scenario is recorded and
// verified under: captured and checked.
var corpusRun = RunConfig{Captured: true, Checked: true}

// DigestLines renders a run's golden digest: the delivery counts, the
// per-kind telemetry event counts, and an FNV-64a hash of the canonical
// captured stream. Every line is a stable function of the simulation, so any
// change in what a scenario does shows in its digest.
func DigestLines(res *Result) []string {
	var lines []string
	keys := make([]string, 0, len(res.Delivered))
	for k := range res.Delivered {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		lines = append(lines, fmt.Sprintf("delivered %s %d", k, res.Delivered[k]))
	}
	counts := map[string]int{}
	for _, ev := range res.Events {
		counts[ev.Kind.String()]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		lines = append(lines, fmt.Sprintf("events %s %d", k, counts[k]))
	}
	lines = append(lines, fmt.Sprintf("stream %016x", streamHash(res.Events)))
	return lines
}

// streamHash is an order-sensitive FNV-64a over every field of every event
// in the canonical stream: any reordering, retiming, or mutation anywhere
// in the run changes it.
func streamHash(events []telemetry.Event) uint64 {
	h := fnv.New64a()
	var buf [8 * 8]byte
	for _, ev := range events {
		fields := [...]uint64{
			uint64(ev.At), uint64(ev.Kind), uint64(int64(ev.Router)),
			uint64(int64(ev.Iface)), ev.Epoch, uint64(ev.Source),
			uint64(ev.Group), uint64(ev.Value),
		}
		for i, f := range fields {
			binary.LittleEndian.PutUint64(buf[i*8:], f)
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Compose renders a scenario file from its script body and digest lines.
func Compose(body string, digest []string) string {
	var b strings.Builder
	b.WriteString(body)
	if !strings.HasSuffix(body, "\n") {
		b.WriteByte('\n')
	}
	b.WriteString(GoldenMarker)
	b.WriteByte('\n')
	for _, ln := range digest {
		b.WriteString(ln)
		b.WriteByte('\n')
	}
	return b.String()
}

// Update runs the scenario at path under the corpus configuration and
// rewrites the file with a regenerated golden section, preserving the
// script body byte-for-byte. It refuses to record a failing run: a golden
// must always describe a scenario that passes its own expectations with the
// invariants intact. It reports whether the file changed.
func Update(path string) (bool, error) {
	old, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	s, err := Parse(string(old))
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	res, err := s.RunWith(corpusRun)
	if err != nil {
		return false, fmt.Errorf("%s: %v", path, err)
	}
	if len(res.Failures) > 0 {
		return false, fmt.Errorf("%s: refusing to record a failing scenario: %v", path, res.Failures)
	}
	if !s.ExpectsViolations() && len(res.Violations) > 0 {
		return false, fmt.Errorf("%s: refusing to record an invariant-violating scenario: %s", path, res.Violations[0])
	}
	content := Compose(s.Body(), DigestLines(res))
	if content == string(old) {
		return false, nil
	}
	return true, os.WriteFile(path, []byte(content), 0o644)
}

// Discover returns every *.pim file under root (recursively), sorted, so
// the corpus needs no registration: dropping a scenario anywhere below
// scenarios/ — including search-emitted counterexamples under found/ —
// enrolls it.
func Discover(root string) ([]string, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".pim") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenarios under %s", root)
	}
	return paths, nil
}

// Verify runs one scenario: the scripted expectations must hold, the
// invariants must be clean (unless the scenario records violations as its
// verdict), and the digest must equal the embedded golden.
func Verify(path string) error {
	s, err := ParseFile(path)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if s.Golden() == nil {
		return fmt.Errorf("%s: no embedded golden; run `pimscript -update %s`", path, path)
	}
	res, err := s.RunWith(corpusRun)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if len(res.Failures) > 0 {
		return fmt.Errorf("%s: %v", path, res.Failures)
	}
	if !s.ExpectsViolations() && len(res.Violations) > 0 {
		return fmt.Errorf("%s: invariant violation: %s", path, res.Violations[0])
	}
	if diff := diffDigest(s.Golden(), DigestLines(res)); diff != "" {
		return fmt.Errorf("%s: golden mismatch (%s); run `pimscript -update %s` if intended", path, diff, path)
	}
	return nil
}

// diffDigest names the first divergence between the recorded and computed
// digests ("" when identical).
func diffDigest(want, got []string) string {
	for i := 0; i < len(want) || i < len(got); i++ {
		w, g := "", ""
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		if w != g {
			return fmt.Sprintf("recorded %q, got %q", w, g)
		}
	}
	return ""
}

// Corpus discovers and verifies every scenario under root, logging one line
// per file through logf (nil for silent). It returns the number of verified
// scenarios; the first failure aborts.
func Corpus(root string, logf func(format string, a ...interface{})) (int, error) {
	paths, err := Discover(root)
	if err != nil {
		return 0, err
	}
	for _, path := range paths {
		if err := Verify(path); err != nil {
			return 0, err
		}
		if logf != nil {
			logf("corpus ok   %s", path)
		}
	}
	return len(paths), nil
}
