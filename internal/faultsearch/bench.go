package faultsearch

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pim/internal/bench"
	"pim/internal/script"
)

func init() {
	bench.Register("faultsearch", bench.Spec{
		Summary: "fault-schedule search: replay the found corpus, sweep schedules, minimize counterexamples",
		Ledger:  "BENCH_faultsearch.json",
		Run:     runBench,
	})
}

// FaultSearchEntry is one appended record of the fault-schedule-search
// ledger (BENCH_faultsearch.json).
type FaultSearchEntry struct {
	bench.LedgerHeader
	Seed              int64 `json:"seed"`
	Budget            int   `json:"budget"`
	SchedulesExplored int   `json:"schedules_explored"`
	ViolationsFound   int   `json:"violations_found"`
	DistinctBugs      int   `json:"distinct_bugs"`
	// MinScheduleSize is the clause count of the smallest minimized
	// counterexample this run produced (0 = nothing found).
	MinScheduleSize int `json:"min_schedule_size"`
	MinimizeEvals   int `json:"minimize_evals"`
	// CorpusReplayed counts the scenarios/found/ files whose recorded
	// verdicts were re-verified before the sweep ran.
	CorpusReplayed int `json:"corpus_replayed"`
	CorpusEmitted  int `json:"corpus_emitted"`
}

// replayCorpus re-runs every previously-found counterexample and verifies
// its recorded verdict still reproduces. The corpus holds both kinds of
// verdict: files asserting a live bug, and files whose expectations were
// flipped to pin a fix after the bug was repaired. Either way, a file that
// stops passing means the harness or a protocol drifted — both demand a
// human, so any regression refuses the whole run.
func replayCorpus(ctx *bench.Context, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.pim"))
	if err != nil {
		return 0, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		s, err := script.ParseFile(path)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
		res, err := s.RunWith(script.RunConfig{Shards: ctx.Shards})
		if err != nil {
			return 0, fmt.Errorf("%s: %v", path, err)
		}
		if !res.OK() {
			return 0, fmt.Errorf("%s: recorded verdict no longer reproduces: %v", path, res.Failures)
		}
		ctx.Printf("corpus ok   %s", path)
	}
	return len(paths), nil
}

// foundFileName derives the corpus filename for a minimized counterexample:
// one file per distinct bug signature, so re-running the search never
// duplicates the corpus.
func foundFileName(f Found) string {
	sig := f.Verdict.Label()
	for _, r := range []string{"/", ":", "+", " "} {
		sig = strings.ReplaceAll(sig, r, "-")
	}
	return fmt.Sprintf("%s-%s-%s.pim", f.Minimal.Topo, f.Minimal.Proto, sig)
}

func runBench(ctx *bench.Context) error {
	budget := ctx.Budget
	emit := ctx.EmitDir
	if ctx.Smoke {
		// Smoke still replays the whole corpus — that is the regression
		// gate — but sweeps a reduced budget and never writes scenarios.
		budget = 120
		emit = ""
	}

	replayed := 0
	if ctx.CorpusDir != "" {
		n, err := replayCorpus(ctx, ctx.CorpusDir)
		if err != nil {
			return fmt.Errorf("corpus replay FAILED, refusing to run: %w", err)
		}
		replayed = n
	}

	cfg := Config{
		Seed: ctx.Seed, Budget: budget, Workers: ctx.Workers,
		Log: func(format string, a ...interface{}) {
			ctx.Printf("faultsearch: "+format, a...)
		},
	}
	rep, err := Search(cfg)
	if err != nil {
		return err
	}
	ctx.Printf("faultsearch: explored %d schedules, %d violating, %d distinct bug(s), %d minimize evals",
		rep.Explored, rep.Violations, len(rep.Found), rep.MinimizeEvals)

	emitted := 0
	for _, f := range rep.Found {
		ctx.Printf("found: %s (%s)\n  minimal: %v", f.Verdict.Label(), f.Verdict.Detail, f.Minimal)
		if emit == "" {
			continue
		}
		path := filepath.Join(emit, foundFileName(f))
		if _, err := os.Stat(path); err == nil {
			ctx.Printf("  corpus already holds %s, not overwriting", path)
			continue
		}
		src, err := RenderFound(f.Minimal, f.Verdict, ctx.Seed, f.Trial)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(emit, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			return err
		}
		ctx.Printf("  emitted %s", path)
		emitted++
	}

	ctx.Append(FaultSearchEntry{
		LedgerHeader:      ctx.Header(""),
		Seed:              ctx.Seed,
		Budget:            budget,
		SchedulesExplored: rep.Explored,
		ViolationsFound:   rep.Violations,
		DistinctBugs:      len(rep.Found),
		MinScheduleSize:   rep.MinScheduleSize(),
		MinimizeEvals:     rep.MinimizeEvals,
		CorpusReplayed:    replayed,
		CorpusEmitted:     emitted,
	})
	return nil
}
