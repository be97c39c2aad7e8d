// Package stamp is the dense table the sampler and the block generator use
// where a cleared map used to be: an int32-valued map over keys [0, n) that
// empties in O(1).
package stamp

// Cell is one key's slot. Val means something only while Epoch equals the
// epoch the table's last Begin returned; any other stamp reads as "absent".
type Cell struct {
	Epoch uint32
	Val   int32
}

// Table owns the cells across uses, so a recycled owner (a sampling.Batch, a
// block.GenScratch) pays for the key space once. The zero value is ready.
type Table struct {
	// Epoch is the generation the last Begin handed out. Exported so a test
	// can park it next to the wrap-around.
	Epoch uint32
	cells []Cell
}

// Begin empties the table and returns its cells for keys [0, n) with the
// epoch that marks a cell as set. Hot loops work on the two returned values
// directly:
//
//	if c := &cells[k]; c.Epoch != ep { *c = stamp.Cell{Epoch: ep, Val: v} }
//
// A key space larger than any seen before gets a fresh (zeroed) array, and
// when the epoch wraps every cell is cleared once, so no stamp left by an
// earlier use — of another size, another graph, or 2^32 uses ago — can read
// as current.
func (t *Table) Begin(n int) ([]Cell, uint32) {
	if n > len(t.cells) {
		t.cells = make([]Cell, n)
	}
	t.Epoch++
	if t.Epoch == 0 {
		clear(t.cells)
		t.Epoch = 1
	}
	return t.cells[:n], t.Epoch
}

// Get reads key k as the fill since the last Begin left it: its value if that
// fill set it; any other key, in or out of the fill's range, is absent.
func (t *Table) Get(k int) (int32, bool) {
	if uint(k) >= uint(len(t.cells)) || t.cells[k].Epoch != t.Epoch {
		return 0, false
	}
	return t.cells[k].Val, true
}
