package script

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDiscoverComplete pins the corpus enrollment contract: every *.pim
// file anywhere below scenarios/ — any nesting depth, found/ included — is
// discovered, and every discovered scenario embeds a golden section. A new
// scenario dropped into the tree without `pimscript -update` fails here,
// not silently skips corpus verification.
func TestDiscoverComplete(t *testing.T) {
	paths, err := Discover("../../scenarios")
	if err != nil {
		t.Fatal(err)
	}
	// Independent walk: Discover must match exactly.
	want := map[string]bool{}
	err = filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".pim") {
			want[path] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(want) {
		t.Fatalf("Discover found %d scenarios, walk found %d", len(paths), len(want))
	}
	for _, p := range paths {
		if !want[p] {
			t.Errorf("Discover returned %s, not found by the walk", p)
		}
		s, err := ParseFile(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if s.Golden() == nil {
			t.Errorf("%s has no embedded golden; run `pimscript -update %s`", p, p)
		}
	}
	// found/ must be reachable — the search-emitted counterexamples are
	// part of the corpus, not a side directory.
	anyFound := false
	for _, p := range paths {
		if strings.Contains(p, string(filepath.Separator)+"found"+string(filepath.Separator)) {
			anyFound = true
		}
	}
	if !anyFound {
		t.Error("no scenarios/found/ files discovered — recursion broken?")
	}
}

func TestDiscoverNested(t *testing.T) {
	dir := t.TempDir()
	deep := filepath.Join(dir, "a", "b")
	if err := os.MkdirAll(deep, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		filepath.Join(dir, "top.pim"),
		filepath.Join(deep, "nested.pim"),
		filepath.Join(dir, "a", "notes.txt"), // not a scenario
	} {
		if err := os.WriteFile(p, []byte("# stub\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("Discover = %v, want the two .pim files", paths)
	}
	if _, err := Discover(filepath.Join(dir, "a", "b", "empty-nowhere")); err == nil {
		t.Error("Discover on a missing root did not error")
	}
}

// TestUpdateRoundTrip is the self-verification round trip: strip a
// scenario's golden, regenerate it with Update, and require (1) the script
// body survives byte-for-byte, (2) the regenerated file equals the
// committed one (the repo goldens are current), and (3) a second Update is
// a no-op — Compose∘Parse is idempotent.
func TestUpdateRoundTrip(t *testing.T) {
	committed, err := os.ReadFile("../../scenarios/rendezvous.pim")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(string(committed))
	if err != nil {
		t.Fatal(err)
	}
	if s.Golden() == nil {
		t.Fatal("committed scenario has no golden")
	}

	path := filepath.Join(t.TempDir(), "rendezvous.pim")
	// Start from the bare body: Update must add the golden section.
	if err := os.WriteFile(path, []byte(s.Body()), 0o644); err != nil {
		t.Fatal(err)
	}
	changed, err := Update(path)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("Update reported unchanged for a golden-less file")
	}
	regenerated, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(regenerated) != string(committed) {
		t.Errorf("regenerated file differs from committed scenario:\n%s", regenerated)
	}
	rs, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Body() != s.Body() {
		t.Error("script body not preserved byte-for-byte through Update")
	}
	changed, err = Update(path)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("second Update is not a no-op")
	}
	if err := Verify(path); err != nil {
		t.Errorf("updated scenario fails Verify: %v", err)
	}
}

// TestUpdateRefusesFailingScenario: a golden must never describe a scenario
// that fails its own expectations.
func TestUpdateRefusesFailingScenario(t *testing.T) {
	src := `topo edges 0-1
unicast oracle
group G0 rp r1
protocol pim-sm
host recv r0
host send r1
at 1s join recv G0
at 3s send send G0 count=2 every=1s
run 8s
expect recv received G0 >= 1000
`
	path := filepath.Join(t.TempDir(), "failing.pim")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Update(path); err == nil {
		t.Fatal("Update recorded a golden for a failing scenario")
	}
}

// TestComposeParse: Compose output parses back into the same body/golden
// split, including the empty-digest edge case.
func TestComposeParse(t *testing.T) {
	body := "topo edges 0-1\nunicast oracle\nprotocol pim-sm\nrun 1s\n"
	digest := []string{"delivered a/G0 1", "stream 0000000000000000"}
	s, err := Parse(Compose(body, digest))
	if err != nil {
		t.Fatal(err)
	}
	if s.Body() != body {
		t.Errorf("body = %q, want %q", s.Body(), body)
	}
	got := s.Golden()
	if len(got) != len(digest) {
		t.Fatalf("golden = %v, want %v", got, digest)
	}
	for i := range digest {
		if got[i] != digest[i] {
			t.Errorf("golden[%d] = %q, want %q", i, got[i], digest[i])
		}
	}
	// Marker with no lines: golden present but empty.
	s, err = Parse(Compose(body, nil))
	if err != nil {
		t.Fatal(err)
	}
	if s.Golden() == nil || len(s.Golden()) != 0 {
		t.Errorf("empty golden section = %v, want present-but-empty", s.Golden())
	}
}
