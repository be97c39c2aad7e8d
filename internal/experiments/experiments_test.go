package experiments

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/train"
)

func quick() Options { return Options{Quick: true, Seed: 3} }

func TestTableRender(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", PaperClaim: "c", Headers: []string{"a", "bb"}}
	tb.AddRow("1", 2)
	tb.AddRow(1.5, "z")
	tb.Notes = append(tb.Notes, "n")
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatalf("render: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"== x: T ==", "paper: c", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	if err := Run("fig99", quick(), &buf); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestRegistryCoversPaperArtifacts(t *testing.T) {
	want := []string{"table2", "fig1", "fig2", "fig4", "fig5", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"table3", "table4", "multigpu", "zero", "ablation"}
	got := map[string]bool{}
	for _, e := range Registry() {
		got[e.ID] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Errorf("registry missing %s", id)
		}
	}
}

// Each fast experiment must produce non-empty rows in quick mode. The slower
// ones are exercised by TestHeavyExperiments (guarded by -short).
func TestFastExperiments(t *testing.T) {
	for _, id := range []string{"table2", "fig1", "fig4", "fig9", "fig12", "ablation"} {
		var buf bytes.Buffer
		if err := Run(id, quick(), &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "== "+id) {
			t.Fatalf("%s: no output", id)
		}
		if strings.Count(buf.String(), "\n") < 4 {
			t.Fatalf("%s: suspiciously short output:\n%s", id, buf.String())
		}
	}
}

func TestHeavyExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy experiments skipped with -short")
	}
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	// A bounded subset keeps the package under go test's default timeout on
	// slow machines; the remaining artifacts run in TestAllExperiments
	// (opt-in) and via `go run ./cmd/experiments -run all`.
	// fig13 is exercised by TestFig13ResolvesOOMs below; the remaining
	// heavy artifacts (fig10/11/14/15/16/17, table4, multigpu) run in the
	// env-gated TestAllExperiments and via cmd/experiments, keeping this
	// package inside go test's default timeout on one core.
	for _, id := range []string{"fig2", "fig5", "table3"} {
		var buf bytes.Buffer
		if err := Run(id, quick(), &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(buf.String()) < 80 {
			t.Fatalf("%s: output too short", id)
		}
	}
}

// TestAllExperiments runs the complete registry; enable it with
// BUFFALO_FULL_TESTS=1 (it takes tens of minutes on one core).
func TestAllExperiments(t *testing.T) {
	if os.Getenv("BUFFALO_FULL_TESTS") == "" {
		t.Skip("set BUFFALO_FULL_TESTS=1 to run the full experiment suite")
	}
	var buf bytes.Buffer
	if err := Run("all", quick(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, e := range Registry() {
		if !strings.Contains(buf.String(), "== "+e.ID) {
			t.Errorf("missing output for %s", e.ID)
		}
	}
}

// Shape assertions on key results: these are the paper's headline claims.
func TestFig13ResolvesOOMs(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	tb, err := Fig13BreakWall(quick())
	if err != nil {
		t.Fatal(err)
	}
	sawOOM := false
	for _, r := range tb.Rows {
		if r[1] == "OOM" {
			sawOOM = true
			if r[2] == "OOM" {
				t.Fatalf("buffalo failed to resolve OOM for %s", r[0])
			}
		}
	}
	if !sawOOM {
		t.Fatal("expected at least one DGL OOM in the wall configs")
	}
}

// TestZeROBitIdenticalAndMemoryDrop runs the zero experiment, which asserts
// bit-identical losses between the all-reduce and ZeRO-1 combines internally
// (it returns an error on any divergence), then checks the table's shape:
// baseline/zero-1 row pairs per replica count and a memory-drop note per pair.
func TestZeROBitIdenticalAndMemoryDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("-short")
	}
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	tb, err := ZeRO(quick())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode sweeps {1, 2, 4}: one single-GPU row plus a pair per
	// multi-replica count.
	if len(tb.Rows) != 5 {
		t.Fatalf("got %d rows, want 5: %+v", len(tb.Rows), tb.Rows)
	}
	var pairs int
	for _, n := range tb.Notes {
		if strings.Contains(n, "losses bit-identical") {
			pairs++
			if !strings.Contains(n, "drops") {
				t.Errorf("pair note missing the memory drop: %s", n)
			}
		}
	}
	if pairs != 2 {
		t.Fatalf("got %d per-pair notes, want 2: %v", pairs, tb.Notes)
	}
}

func TestFig12BuffaloFaster(t *testing.T) {
	tb, err := Fig12BlockGen(quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.Rows {
		speedup := r[4]
		if !strings.HasSuffix(speedup, "x") {
			t.Fatalf("bad speedup cell %q", speedup)
		}
		if strings.HasPrefix(speedup, "0.") {
			t.Fatalf("buffalo slower than naive: %v", r)
		}
	}
}

// TestStrategyMinKMonotoneBudget: the Random strategy searches its own K in
// the engine (MicroBatches 0) against a plan limit of 9/10 of the activation
// budget. On one shared batch, a limit the whole batch's estimate fits keeps
// K = 1, and a quarter of it forces K >= 2: a bigger budget never needs more
// parts.
func TestStrategyMinKMonotoneBudget(t *testing.T) {
	ds, err := load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampleFor(ds, expProfile{batch: 400, fanouts: []int{10, 25}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	model := sageConfig(ds, gnn.LSTM, 2, 32)
	est, err := estimatorFor(ds, b, model, 3)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := est.BatchMem(b)
	if err != nil {
		t.Fatal(err)
	}
	cfg := train.Config{System: train.RandomP, Model: model, Fanouts: []int{10, 25},
		BatchSize: 400, MemBudget: 2 * device.GB, Seed: 3}
	probe, err := train.NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resident := probe.GPU.Live()
	probe.Close()
	// minK runs b under the smallest device whose plan limit is limit.
	minK := func(limit int64) int {
		c := cfg
		c.MemBudget = resident + limit*10/9 + 10
		s, err := train.NewSession(ds, c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.RunIterationOn(b)
		if err != nil {
			t.Fatalf("limit %d: %v", limit, err)
		}
		return res.K
	}
	kSmall, kBig := minK(whole/4), minK(whole)
	if kBig > kSmall {
		t.Fatalf("bigger budget needed more parts: %d vs %d", kBig, kSmall)
	}
	if kBig != 1 {
		t.Fatalf("a limit the whole batch fits should keep K = 1, got %d", kBig)
	}
	if kSmall < 2 {
		t.Fatalf("quarter budget should force K >= 2, got %d", kSmall)
	}
}
