package report

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one `go test -bench -benchmem` result line:
//
//	BenchmarkName-8   123   4567 ns/op   89 B/op   2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ B/op\s+([\d.]+) allocs/op)?`)

// MergeBenchText folds raw `go test -bench -benchmem` output into the
// manifest's Benchmarks map, keeping the fastest ns/op sample per benchmark
// (the minimum over samples is the run least polluted by scheduler noise;
// allocation counts are deterministic).
func (m *Manifest) MergeBenchText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	n := 0
	for sc.Scan() {
		match := benchLine.FindStringSubmatch(sc.Text())
		if match == nil {
			continue
		}
		name := strings.TrimPrefix(match[1], "Benchmark")
		ns, err := strconv.ParseFloat(match[2], 64)
		if err != nil {
			continue
		}
		var allocs float64
		if match[3] != "" {
			allocs, _ = strconv.ParseFloat(match[3], 64)
		}
		if m.Benchmarks == nil {
			m.Benchmarks = make(map[string]Benchmark)
		}
		if prev, ok := m.Benchmarks[name]; !ok || ns < prev.NsPerOp {
			m.Benchmarks[name] = Benchmark{NsPerOp: ns, AllocsPerOp: allocs}
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("report: reading bench output: %w", err)
	}
	if n == 0 {
		return fmt.Errorf("report: no benchmark result lines found (expected `go test -bench -benchmem` output)")
	}
	return nil
}

// MergeBenchFile folds a `go test -bench -benchmem` text log into the
// manifest (MergeBenchText).
func (m *Manifest) MergeBenchFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	return m.MergeBenchText(bytes.NewReader(data))
}
