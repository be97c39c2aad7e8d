package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func sortedNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameSet fails unless got and want hold the same names with the same units.
func sameSet(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for _, name := range sortedNames(want) {
		if unit, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the benchmark does not report it", what, name)
		} else if unit != want[name] {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, unit, want[name])
		}
	}
	for _, name := range sortedNames(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: the benchmark reports %s, BENCHMARK.json does not list it", what, name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes and
// checks that the names and units each run emits, and the workload names,
// match BENCHMARK.json in both directions, and that every verification check
// passes.
func TestSmoke(t *testing.T) {
	f := readBenchmarkFile(t)
	endToEndWant, perLayerWant := map[string]string{}, map[string]string{}
	for _, m := range f.EndToEnd {
		endToEndWant[m.Name] = m.Unit
	}
	for _, m := range f.PerLayer {
		perLayerWant[m.Name] = m.Unit
	}
	declared, have := map[string]string{}, map[string]string{}
	for _, w := range f.Workloads {
		declared[w.Name] = ""
	}
	for _, sp := range workloads {
		have[sp.name] = ""
	}
	sameSet(t, "workloads", have, declared)

	out := t.TempDir()
	for i := range workloads {
		sp := &workloads[i]
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", sp.name, trace), func(t *testing.T) {
				rep, err := runWorkload(sp, options{seed: 11, seconds: 0.2, trace: trace, quick: true, outDir: out}, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				overloaded := raceEnabled && sp.kind == serving
				if !rep.Correct && !overloaded {
					t.Error("a verification check failed")
				}
				if rep.Attempted < 1 || (rep.Failed > rep.Attempted/100 && !overloaded) {
					t.Errorf("attempted %d, failed %d", rep.Attempted, rep.Failed)
				}
				got := map[string]string{}
				for name, m := range rep.Metrics {
					got[name] = m.Unit
				}
				want := endToEndWant
				if trace {
					want = perLayerWant
				}
				sameSet(t, "metrics", got, want)
				for name, m := range rep.Metrics {
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must be positive", name, m.Value)
					}
				}
			})
		}
	}
}
