// Command pimscript runs scenario script files (see internal/script for the
// language): declare a topology, deploy a protocol, schedule joins, sends,
// and link failures, and assert on delivery and state. Exit status is
// non-zero if any script fails an expectation.
//
// Usage:
//
//	pimscript scenarios/*.pim            run scripts
//	pimscript -v scenarios/rendezvous.pim
//	pimscript -update scenarios/*.pim    regenerate embedded goldens
//	pimscript -corpus scenarios          discover + verify the whole corpus
//
// -corpus runs every *.pim below the directory (found/ and baselines/
// included) under the invariant checker and verifies each file's embedded
// `-- golden --` digest (DESIGN.md §15).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"pim/internal/script"
)

func main() {
	verbose := flag.Bool("v", false, "print deployment logs and delivery counts")
	check := flag.Bool("check", false, "attach the online invariant checker; violations fail the run, except for scripts that record their own verdict with `expect violations`")
	update := flag.Bool("update", false, "run each script and rewrite its embedded `-- golden --` digest")
	corpus := flag.String("corpus", "", "discover and verify every *.pim under this directory against its embedded golden")
	flag.Parse()

	if *corpus != "" {
		n, err := script.Corpus(*corpus, func(format string, a ...interface{}) {
			fmt.Printf(format+"\n", a...)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pimscript:", err)
			os.Exit(1)
		}
		fmt.Printf("corpus PASS: %d scenarios\n", n)
		return
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: pimscript [-v] [-check] [-update] <script.pim> ... | pimscript -corpus <dir>")
		os.Exit(2)
	}
	if *update {
		failed := 0
		for _, path := range flag.Args() {
			changed, err := script.Update(path)
			switch {
			case err != nil:
				fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
				failed++
			case changed:
				fmt.Printf("updated   %s\n", path)
			default:
				fmt.Printf("unchanged %s\n", path)
			}
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	failed := 0
	for _, path := range flag.Args() {
		s, err := script.ParseFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		res, err := s.RunWith(script.RunConfig{Checked: *check})
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", path, err)
			failed++
			continue
		}
		violations := len(res.Violations)
		if s.ExpectsViolations() {
			// The script records its own verdict on the checker (found
			// counterexamples under scenarios/found/ assert violations >= 1):
			// the expectations decide pass/fail, not the raw violation count.
			violations = 0
		}
		if res.OK() && violations == 0 {
			fmt.Printf("PASS %s\n", path)
		} else {
			failed++
			fmt.Printf("FAIL %s\n", path)
			for _, f := range res.Failures {
				fmt.Printf("     %s\n", f)
			}
			for _, v := range res.Violations {
				fmt.Printf("     invariant: %s\n", v)
			}
		}
		if *verbose {
			for _, l := range res.Log {
				fmt.Printf("     %s\n", l)
			}
			keys := make([]string, 0, len(res.Delivered))
			for k := range res.Delivered {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Printf("     delivered %s = %d\n", k, res.Delivered[k])
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
