//go:build !tensordebug

package tensor

// poison is a no-op in normal builds. Build with -tags tensordebug to fill
// released matrices and uncleared checkouts with NaN, so a use-after-release
// or a read-before-write fails loudly.
func poison(*Matrix) {}
