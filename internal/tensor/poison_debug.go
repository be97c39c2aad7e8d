//go:build tensordebug

package tensor

import "math"

// poison fills a matrix with NaN: at release, so a stale alias used after its
// Put/Reset reads NaN rather than silently recycled data, and at an uncleared
// checkout of a fresh buffer (a recycled one still holds its release poison),
// so a GetUninit consumer that reads before it writes does too. Get re-zeroes
// what it hands out, so neither reaches a correct program's arithmetic.
func poison(m *Matrix) {
	nan := float32(math.NaN())
	for i := range m.Data {
		m.Data[i] = nan
	}
}
