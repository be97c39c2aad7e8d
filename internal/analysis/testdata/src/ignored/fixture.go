// Package fixture exercises the //buffalo:vet-ignore directive.
package fixture

import "os"

// SuppressedInline carries the directive at the end of the offending line.
func SuppressedInline() {
	os.Remove("/tmp/buffalo-vet-fixture") //buffalo:vet-ignore errcheck seeded for the directive test
}

// SuppressedAbove carries the directive alone on the preceding line.
func SuppressedAbove() {
	//buffalo:vet-ignore errcheck
	os.Remove("/tmp/buffalo-vet-fixture")
}

// SuppressedAll uses a bare directive, which silences every analyzer.
func SuppressedAll() {
	os.Remove("/tmp/buffalo-vet-fixture") //buffalo:vet-ignore
}

// WrongAnalyzer names a different analyzer, so errcheck still fires — and
// once locksafe also runs, the directive is provably stale.
func WrongAnalyzer() {
	os.Remove("/tmp/buffalo-vet-fixture") //buffalo:vet-ignore locksafe -- want:errcheck and want:vet-ignore
}

// StaleDirective suppresses nothing: the error is handled, so the directive
// itself is reported.
func StaleDirective() error {
	return os.Remove("/tmp/buffalo-vet-fixture") //buffalo:vet-ignore errcheck stale by design; want:vet-ignore
}
