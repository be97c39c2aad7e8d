package main

import "testing"

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pat, importPath string
		want            bool
	}{
		{"./...", "buffalo/internal/device", true},
		{"...", "buffalo", true},
		{"internal/device", "buffalo/internal/device", true},
		{"buffalo/internal/device", "buffalo/internal/device", true},
		{"./internal/device", "buffalo/internal/device", true},
		{"internal/device", "buffalo/internal/train", false},
		{"internal/...", "buffalo/internal/train", true},
		{"internal/...", "buffalo/cmd/graphgen", false},
		{"./internal/...", "buffalo/internal/block", true},
		{"cmd/...", "buffalo/cmd/buffalo-vet", true},
		{".", "buffalo", true}, // "." is the module root package
		{".", "buffalo/internal/device", false},
		{"buffalo", "buffalo", true},
	}
	for _, tc := range cases {
		if got := matchPattern("buffalo", tc.pat, tc.importPath); got != tc.want {
			t.Errorf("matchPattern(%q, %q) = %v, want %v", tc.pat, tc.importPath, got, tc.want)
		}
	}
}

func TestSelectAnalyzersFlags(t *testing.T) {
	all, err := selectAnalyzers("")
	if err != nil || len(all) != 2 {
		t.Fatalf("default selection: %v, %d analyzers", err, len(all))
	}
	only, err := selectAnalyzers(" locksafe, ")
	if err != nil || len(only) != 1 || only[0].Name != "locksafe" {
		t.Fatalf("-analyzers selection: %v, %v", err, only)
	}
	if _, err := selectAnalyzers("bogus"); err == nil {
		t.Fatal("want error for unknown analyzer")
	}
}

// TestRunRepoClean drives the real CLI path over the repository: loading
// the module from this test's working directory must succeed and produce
// zero findings (exit code 0).
func TestRunRepoClean(t *testing.T) {
	if code := run([]string{"-C", "../..", "internal/device", "cmd/buffalo-vet"}); code != 0 {
		t.Fatalf("buffalo-vet on clean packages exited %d", code)
	}
	if code := run([]string{"-C", "../..", "no/such/package"}); code != 2 {
		t.Fatalf("unknown pattern should exit 2, got %d", code)
	}
	if code := run([]string{"-list"}); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
}
