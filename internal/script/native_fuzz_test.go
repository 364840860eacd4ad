package script

import (
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// corpusSeeds feeds every file under scenarios/ to add: the fuzz targets
// start from the whole committed corpus, and under plain `go test` each
// scenario runs as a unit-test case.
func corpusSeeds(f *testing.F, add func(text string)) {
	f.Helper()
	n := 0
	err := filepath.WalkDir("../../scenarios", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		add(string(b))
		n++
		return nil
	})
	if err != nil || n == 0 {
		f.Fatalf("seeding from scenarios/: %d files, err %v", n, err)
	}
}

// FuzzParse: hostile text must parse or error cleanly, never panic, and
// whatever parses must survive regeneration — Compose of the parsed body and
// golden re-parses to the same golden, the same body (Compose adds at most
// the one missing final newline), and is a fixed point from then on, which
// is what makes `pimscript -update` idempotent on any file it accepts.
func FuzzParse(f *testing.F) {
	corpusSeeds(f, func(text string) { f.Add(text) })
	f.Add("")
	f.Add(GoldenMarker)
	f.Add("run 1s\n" + GoldenMarker + "\n" + GoldenMarker + "\nstream 0\n")
	f.Add("at 1s send h G0 count==\x00 every=\n" + GoldenMarker + "\r\n")
	for _, tc := range hostileScripts {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		s.ExpectsViolations()
		if s.Golden() == nil {
			if s.Body() != text {
				t.Fatalf("golden-less parse altered the body: %q -> %q", text, s.Body())
			}
			return
		}
		composed := Compose(s.Body(), s.Golden())
		s2, err := Parse(composed)
		if err != nil {
			t.Fatalf("regenerated file does not parse: %v\n%q", err, composed)
		}
		if !slices.Equal(s2.Golden(), s.Golden()) {
			t.Fatalf("golden changed through regeneration: %q -> %q", s.Golden(), s2.Golden())
		}
		if b := s2.Body(); b != s.Body() && b != s.Body()+"\n" {
			t.Fatalf("body changed through regeneration: %q -> %q", s.Body(), b)
		}
		if again := Compose(s2.Body(), s2.Golden()); again != composed {
			t.Fatalf("regeneration is not a fixed point:\n%q\n%q", composed, again)
		}
	})
}

// FuzzComposeParse is the `-- golden --` section's round trip from the
// writer's side: for any script body that parses, ends its last line, and
// holds no marker line of its own, and any digest of trimmed non-empty lines,
// Parse(Compose(body, digest)) returns exactly that body and that digest.
func FuzzComposeParse(f *testing.F) {
	corpusSeeds(f, func(text string) {
		s, err := Parse(text)
		if err != nil {
			f.Fatalf("committed scenario does not parse: %v", err)
		}
		f.Add(s.Body(), strings.Join(s.Golden(), "\n"))
	})
	f.Add("run 1s\n", "")
	f.Add("", GoldenMarker)
	f.Fuzz(func(t *testing.T, body, golden string) {
		if body != "" && !strings.HasSuffix(body, "\n") {
			body += "\n"
		}
		if _, _, has := cutGolden(body); has {
			return
		}
		if _, err := Parse(body); err != nil {
			return
		}
		digest := []string{}
		for _, ln := range strings.Split(golden, "\n") {
			if ln = strings.TrimSpace(ln); ln != "" {
				digest = append(digest, ln)
			}
		}
		s, err := Parse(Compose(body, digest))
		if err != nil {
			t.Fatalf("composed file does not parse: %v", err)
		}
		// Compose terminates an empty body's (non-existent) last line too.
		if want := strings.TrimSuffix(body, "\n") + "\n"; s.Body() != want {
			t.Fatalf("body = %q, want %q", s.Body(), want)
		}
		if !slices.Equal(s.Golden(), digest) {
			t.Fatalf("golden = %q, want %q", s.Golden(), digest)
		}
	})
}
