package analysis

import (
	"encoding/json"
	"fmt"
	"os"
)

// HotBaseline is the committed hot-path allocation budget: for every hot
// root, how many allocation sites of each kind each reachable function may
// contain. The hotalloc analyzer fails when the module grows beyond it and
// advises a rewrite when the module shrinks below it, so the file always
// tracks reality and the diff shows exactly which budget moved.
type HotBaseline struct {
	Roots map[string]*RootBaseline `json:"roots"`
}

// RootBaseline is one hot root's budget.
type RootBaseline struct {
	// Total is the root's overall reachable-site count, a quick number to
	// compare against the gated allocs/op (scripts/report_baseline.json).
	Total int `json:"total"`
	// Funcs maps reachable function names to per-kind site counts
	// (make, new, append, lit, iface).
	Funcs map[string]map[string]int `json:"funcs"`
}

// NewHotBaseline returns an empty baseline ready to be filled.
func NewHotBaseline() *HotBaseline {
	return &HotBaseline{Roots: make(map[string]*RootBaseline)}
}

// Root returns (creating if needed) the budget for one root.
func (b *HotBaseline) Root(name string) *RootBaseline {
	rb := b.Roots[name]
	if rb == nil {
		rb = &RootBaseline{Funcs: make(map[string]map[string]int)}
		b.Roots[name] = rb
	}
	return rb
}

// Add records count sites of one kind in one function under one root.
func (b *HotBaseline) Add(root, fn, kind string, count int) {
	rb := b.Root(root)
	byKind := rb.Funcs[fn]
	if byKind == nil {
		byKind = make(map[string]int)
		rb.Funcs[fn] = byKind
	}
	byKind[kind] += count
	rb.Total += count
}

// Count returns the budget for one (root, function, kind), zero when
// absent.
func (b *HotBaseline) Count(root, fn, kind string) int {
	if b == nil {
		return 0
	}
	rb := b.Roots[root]
	if rb == nil {
		return 0
	}
	return rb.Funcs[fn][kind]
}

// ReadHotBaseline loads a baseline file.
func ReadHotBaseline(path string) (*HotBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := NewHotBaseline()
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("analysis: parsing hotalloc baseline %s: %w", path, err)
	}
	if b.Roots == nil {
		b.Roots = make(map[string]*RootBaseline)
	}
	return b, nil
}

// WriteFile writes the baseline as stable, human-diffable JSON (map keys
// are emitted sorted).
func (b *HotBaseline) WriteFile(path string) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
