// Package block builds the message-flow-graph blocks GNN layers consume.
//
// A block is the bipartite structure of one layer of one micro-batch: a
// destination frontier, its source frontier (destinations first — the DGL
// prefix convention — followed by the extra sampled neighbors), and for each
// destination the local indices of its sampled neighbors.
//
// Two generators produce bit-identical blocks:
//
//   - GenerateInto is Buffalo's fast path (§IV-E). The sampler already gave
//     every sampled neighbor its position in the batch's next frontier
//     (sampling.HopAdj.NbrPos) and a frontier node keeps its position from
//     one hop to the next, so a micro-batch frontier travels as positions: a
//     destination's neighbors are the array read NbrPos[p], and renumbering
//     them into the block's Src is a stamped table over that position space
//     (DESIGN.md §7, "One numbering"). No node id is hashed per node or per
//     edge, and a warm GenScratch builds a micro-batch without allocating.
//     It is single-threaded on purpose: what used to be fanned out across
//     cores was a map lookup per node, and is now a slice index.
//   - GenerateNaiveTimed is the Betty/DGL-style baseline: it flattens the batch
//     into one merged adjacency, then for every micro-batch layer rebuilds
//     per-hop membership sets from the FULL batch and rediscovers each
//     destination's sampled neighbors by checking every merged-adjacency
//     candidate against those sets — the "repeated connection checks" the
//     paper measures at up to 8x Buffalo's cost (Fig 12), all sequential.
package block

import (
	"fmt"
	"time"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/sampling"
	"buffalo/internal/stamp"
)

// Block is one layer's bipartite message-flow graph.
type Block struct {
	// Dst are the destination (output-side) nodes, original-graph IDs.
	Dst []graph.NodeID
	// Src are the source nodes; Src[0:len(Dst)] == Dst, followed by the
	// distinct extra neighbors.
	Src []graph.NodeID
	// Adj[i] holds, for Dst[i], the indices into Src of its sampled
	// neighbors.
	Adj [][]int32

	// adjFlat is the reused flat backing GenerateInto carves Adj[i] views
	// from; unused by GenerateNaiveTimed.
	adjFlat []int32
}

// NumDst reports the destination count.
func (b *Block) NumDst() int { return len(b.Dst) }

// NumSrc reports the source count.
func (b *Block) NumSrc() int { return len(b.Src) }

// NumEdges reports the adjacency entry count.
func (b *Block) NumEdges() int64 {
	var m int64
	for _, a := range b.Adj {
		m += int64(len(a))
	}
	return m
}

// MicroBatch is the unit of GNN execution: a subset of the batch's output
// nodes plus the blocks carrying their multi-hop dependencies. Blocks are
// ordered input to output: Blocks[0] is the innermost layer and
// Blocks[L-1].Dst equals Outputs. Adjacent blocks share frontiers:
// Blocks[l].Src == Blocks[l-1].Dst.
type MicroBatch struct {
	Outputs []graph.NodeID
	Blocks  []*Block
}

// InputNodes returns the nodes whose raw features the micro-batch loads
// (the innermost block's source frontier).
func (m *MicroBatch) InputNodes() []graph.NodeID { return m.Blocks[0].Src }

// NumNodes reports the total node slots across all frontiers (with the
// inter-layer sharing counted once per layer, as a framework materializes
// them).
func (m *MicroBatch) NumNodes() int64 {
	total := int64(m.Blocks[0].NumSrc())
	for _, b := range m.Blocks {
		total += int64(b.NumDst())
	}
	return total
}

// Generate builds a micro-batch for the given subset of batch.Seeds using
// Buffalo's sampling-order fast path. Outputs must each be one of the
// batch's seeds.
func Generate(batch *sampling.Batch, outputs []graph.NodeID) (*MicroBatch, error) {
	return GenerateInto(new(GenScratch), batch, outputs, nil)
}

// GenScratch owns the storage one micro-batch generation consumes — the
// MicroBatch itself, a value slab for its blocks, each block's flat Src/Adj
// backing, the frontier's positions (current hop and next), and the
// renumbering table — so a warm GenerateInto builds blocks without
// allocating. One scratch serves one in-flight micro-batch at a time; the
// iteration engine keeps K of them per checked-out iteration. The zero value
// is ready.
type GenScratch struct {
	mb     MicroBatch
	blocks []Block
	// pos[i] is the position of the current frontier's i-th node in the
	// batch frontier of the hop being built (and, being a prefix of it, of
	// the next one); nextPos collects the same for the block's Src.
	pos, nextPos []int32
	// local maps a position in the batch's next frontier to the node's local
	// index in the block's Src; before hop 0 it doubles as the duplicate
	// check over seed rows.
	local stamp.Table
}

// The single-make growth helpers keep the hot-path allocation census to one
// site per element type no matter how many call sites reuse storage.
func ensureIDs(s []graph.NodeID, n int) []graph.NodeID {
	if cap(s) < n {
		return make([]graph.NodeID, n)
	}
	return s[:n]
}

func ensureAdjHeaders(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

func ensureInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// GenerateInto builds the micro-batch of outputs in sc's storage: the
// returned MicroBatch (always &sc.mb) is valid until the next GenerateInto on
// the same scratch; a nil scratch gets a fresh one. Concurrent calls over one
// batch are safe with a scratch each — the batch is only read.
//
// With a recorder it emits one KindFanout span per hop (the hop's gather and
// renumbering, Bytes the frontier size, Aux the worker count, always 1) and
// adds the call's totals to the counters block/src_nodes and block/edges.
func GenerateInto(sc *GenScratch, batch *sampling.Batch, outputs []graph.NodeID, rec *obs.Recorder) (*MicroBatch, error) {
	if sc == nil {
		sc = new(GenScratch)
	}
	for h := range batch.Hops {
		if hop := &batch.Hops[h]; len(hop.NbrPos) != len(hop.Dst) {
			return nil, fmt.Errorf("block: hop %d lists %d destinations but positions for %d (a hand-built batch needs AssignPositions)",
				h, len(hop.Dst), len(hop.NbrPos))
		}
	}
	sc.pos = ensureInt32s(sc.pos, len(outputs))
	if err := outputRows(&sc.local, batch, outputs, sc.pos); err != nil {
		return nil, err
	}
	L := batch.Layers()
	mb := &sc.mb
	mb.Outputs = ensureIDs(mb.Outputs, len(outputs))
	copy(mb.Outputs, outputs)
	if cap(sc.blocks) < L {
		blocks := make([]Block, L)
		copy(blocks, sc.blocks) // keep warmed backing from a shallower config
		sc.blocks = blocks
	} else {
		sc.blocks = sc.blocks[:L]
	}
	if cap(mb.Blocks) < L {
		mb.Blocks = make([]*Block, L)
	} else {
		mb.Blocks = mb.Blocks[:L]
	}
	for i := range sc.blocks {
		mb.Blocks[i] = &sc.blocks[i]
	}
	var srcNodes, edges int64
	frontier, pos := mb.Outputs, sc.pos
	for h := 0; h < L; h++ {
		var t0 time.Time
		if rec.Enabled() {
			t0 = time.Now()
		}
		hop := &batch.Hops[h]
		next := batch.Frontier(h + 1)
		// Every frontier node already has a place in the next frontier (its
		// own position), so the table starts out mapping pos[i] -> i.
		cells, ep := sc.local.Begin(len(next))
		total := 0
		for i, p := range pos {
			if int(p) >= len(cells) {
				return nil, errPosition(h, p, len(next))
			}
			cells[p] = stamp.Cell{Epoch: ep, Val: int32(i)}
			total += len(hop.NbrPos[p])
		}
		// The flat Adj backing is sized to the hop's full gather total before
		// the first row is carved from it; Src holds the frontier plus at
		// most one node per gathered edge, and never more than the batch's
		// next frontier.
		bound := min(len(frontier)+total, len(next))
		blk := &sc.blocks[L-1-h]
		blk.Dst = frontier
		blk.adjFlat = ensureInt32s(blk.adjFlat, total)
		blk.Adj = ensureAdjHeaders(blk.Adj, len(frontier))
		src := append(ensureIDs(blk.Src, bound)[:0], frontier...)
		npos := append(ensureInt32s(sc.nextPos, bound)[:0], pos...)
		used := 0
		for i, p := range pos {
			row := hop.NbrPos[p]
			adj := blk.adjFlat[used : used+len(row)]
			for j, q := range row {
				if uint(q) >= uint(len(cells)) {
					return nil, errPosition(h, q, len(next))
				}
				c := &cells[q]
				if c.Epoch != ep {
					*c = stamp.Cell{Epoch: ep, Val: int32(len(src))}
					src = append(src, next[q])
					npos = append(npos, q)
				}
				adj[j] = c.Val
			}
			blk.Adj[i] = adj
			used += len(row)
		}
		blk.Src = src
		sc.pos, sc.nextPos = npos, pos
		frontier, pos = src, npos
		srcNodes += int64(len(src))
		edges += int64(total)
		if rec.Enabled() {
			rec.Span(obs.KindFanout, "", hopGatherName(h), time.Since(t0), int64(len(blk.Dst)), 1)
		}
	}
	reverseShareCheck(mb)
	if m := rec.Metrics(); m != nil {
		m.Counter("block/src_nodes").Add(srcNodes)
		m.Counter("block/edges").Add(edges)
	}
	return mb, nil
}

func errPosition(h int, p int32, n int) error {
	return fmt.Errorf("block: hop %d position %d is outside the next frontier (%d nodes)", h, p, n)
}

// hopGatherName labels a hop's fan-out span without per-call formatting.
func hopGatherName(h int) string {
	if h < len(hopGatherNames) {
		return hopGatherNames[h]
	}
	return fmt.Sprintf("gather/hop%d", h)
}

var hopGatherNames = [...]string{
	"gather/hop0", "gather/hop1", "gather/hop2", "gather/hop3",
	"gather/hop4", "gather/hop5", "gather/hop6", "gather/hop7",
}

// GenerateNaiveTimed builds the same micro-batch as Generate with the
// connection-check baseline (see the package comment); the result is
// identical to Generate's. It also returns the two phase durations Fig 11
// reports: checkTime covers the connection checks (flattening the batch and
// rebuilding per-hop membership sets, repeated per micro-batch) and
// buildTime covers block assembly (renumbering and adjacency construction).
func GenerateNaiveTimed(batch *sampling.Batch, outputs []graph.NodeID) (mb *MicroBatch, checkTime, buildTime time.Duration, err error) {
	if err := outputRows(new(stamp.Table), batch, outputs, make([]int32, len(outputs))); err != nil {
		return nil, 0, 0, err
	}
	L := batch.Layers()
	tCheck := time.Now()
	merged := batch.MergedAdjacency()
	checkTime = time.Since(tCheck)
	mb = &MicroBatch{
		Outputs: append([]graph.NodeID(nil), outputs...),
		Blocks:  make([]*Block, L),
	}
	frontier := mb.Outputs
	for h := 0; h < L; h++ {
		hop := &batch.Hops[h]
		// Rebuild the hop's membership sets from the full batch, per
		// micro-batch: the redundant work the baseline repeats K times.
		tC := time.Now()
		rowOf := make(map[graph.NodeID]int, len(hop.Dst))
		sampledSet := make(map[graph.NodeID]map[graph.NodeID]bool, len(hop.Dst))
		for i, d := range hop.Dst {
			rowOf[d] = i
			set := make(map[graph.NodeID]bool, len(hop.Nbrs[i]))
			for _, u := range hop.Nbrs[i] {
				set[u] = true
			}
			sampledSet[d] = set
		}
		checkTime += time.Since(tC)
		tB := time.Now()
		blk := &Block{Dst: frontier}
		local := make(map[graph.NodeID]int32, len(frontier))
		blk.Src = append(blk.Src, frontier...)
		for i, v := range frontier {
			local[v] = int32(i)
		}
		blk.Adj = make([][]int32, len(frontier))
		for i, v := range frontier {
			set := sampledSet[v]
			// Connection check: walk the merged candidates in order and keep
			// those the hop actually sampled, preserving sampling order.
			idx, ok := rowOf[v]
			if !ok {
				return nil, 0, 0, fmt.Errorf("block: node %d missing from hop %d", v, h)
			}
			for _, u := range hop.Nbrs[idx] {
				// Verify u really is a merged-subgraph neighbor of v (the
				// baseline cannot trust per-hop bookkeeping it does not have).
				if !containsSorted(merged[v], u) || !set[u] {
					continue
				}
				li, seen := local[u]
				if !seen {
					li = int32(len(blk.Src))
					local[u] = li
					blk.Src = append(blk.Src, u)
				}
				blk.Adj[i] = append(blk.Adj[i], li)
			}
		}
		mb.Blocks[L-1-h] = blk
		frontier = blk.Src
		buildTime += time.Since(tB)
	}
	reverseShareCheck(mb)
	return mb, checkTime, buildTime, nil
}

// outputRows checks that outputs are distinct seeds of the batch and writes
// each one's row in hop 0 (its position, below len(Frontier(0))) to rows.
// seen is emptied first and holds the duplicate check.
func outputRows(seen *stamp.Table, batch *sampling.Batch, outputs []graph.NodeID, rows []int32) error {
	if len(outputs) == 0 {
		return fmt.Errorf("block: micro-batch needs at least one output node")
	}
	cells, ep := seen.Begin(len(batch.Hops[0].Dst))
	for i, v := range outputs {
		r, ok := batch.Position(v)
		if !ok || int(r) >= len(cells) {
			return fmt.Errorf("block: output %d is not a seed of the batch", v)
		}
		if cells[r].Epoch == ep {
			return fmt.Errorf("block: duplicate output %d", v)
		}
		cells[r].Epoch = ep
		rows[i] = r
	}
	return nil
}

// reverseShareCheck asserts the inter-block frontier-sharing invariant;
// violating it means renumbering is broken, so fail loudly.
func reverseShareCheck(mb *MicroBatch) {
	for l := len(mb.Blocks) - 1; l > 0; l-- {
		srcs := mb.Blocks[l].Src
		dsts := mb.Blocks[l-1].Dst
		if len(srcs) != len(dsts) {
			panic("block: inter-layer frontier sharing violated (src/dst count mismatch)")
		}
	}
}

// containsSorted reports whether sorted slice s contains v (binary search).
func containsSorted(s []graph.NodeID, v graph.NodeID) bool {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := (lo + hi) / 2
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s) && s[lo] == v
}
