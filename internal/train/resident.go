package train

import (
	"buffalo/internal/device"
	"buffalo/internal/graph"
)

// residentRows is the set of input rows idle on one replica's device, least
// recently used first: the rows released micro-batches left behind, which
// the device holds as cached bytes until an allocation reclaims them. The
// set is an intrusive doubly linked list over node ids, so a lookup, a
// removal and an append each cost O(1); its link slice is sized to the
// graph once, on the first push, and never again. Only the consumer
// goroutine touches it, so it has no lock.
type residentRows struct {
	// links[v] links node v into the list, links[v].next < 0 when v is not
	// in the set. Index len(links)-1 is the sentinel: its next is the oldest
	// row, its prev the newest. A node's two links share a cache line.
	links []rowLink
	rows  int64
}

type rowLink struct{ next, prev int32 }

// take removes every row of in that the set holds and returns their count:
// the rows a micro-batch finds already on the device. in lists distinct
// nodes.
func (r *residentRows) take(in []graph.NodeID) int64 {
	if r.rows == 0 {
		return 0
	}
	var hits int64
	for _, v := range in {
		if r.links[v].next >= 0 {
			r.unlink(int32(v))
			hits++
		}
	}
	r.rows -= hits
	return hits
}

// push appends the rows of in as the newest entries, sizing the set to a
// graph of numNodes nodes on the first call. None of them may be
// in the set already (take removed them when their micro-batch was staged).
func (r *residentRows) push(in []graph.NodeID, numNodes int) {
	if r.links == nil {
		r.links = make([]rowLink, numNodes+1)
		for v := range r.links {
			r.links[v].next = -1
		}
		s := int32(numNodes)
		r.links[s] = rowLink{next: s, prev: s}
	}
	s := int32(len(r.links) - 1)
	for _, v := range in {
		last := r.links[s].prev
		r.links[last].next = int32(v)
		r.links[v] = rowLink{next: s, prev: last}
		r.links[s].prev = int32(v)
	}
	r.rows += int64(len(in))
}

// trim removes the oldest rows until at most keep remain.
func (r *residentRows) trim(keep int64) {
	if r.rows <= keep {
		return
	}
	s := int32(len(r.links) - 1)
	for ; r.rows > keep; r.rows-- {
		r.unlink(r.links[s].next)
	}
}

// unlink removes v, which is in the set, from the list (rows is the
// caller's to adjust).
func (r *residentRows) unlink(v int32) {
	l := r.links[v]
	r.links[l.prev].next = l.next
	r.links[l.next].prev = l.prev
	r.links[v].next = -1
}

// sync trims the set to the whole rows gpu still caches for it and hands the
// device back the part-row a reclaim may have left, so that afterwards
// gpu.Cached() is exactly rows × rowBytes. Allocations reclaim cached bytes
// without knowing whose rows they were; this is where the oldest rows give
// way.
func (r *residentRows) sync(gpu *device.GPU, rowBytes int64) {
	cached := gpu.Cached()
	r.trim(cached / rowBytes)
	gpu.Uncache(cached - r.rows*rowBytes)
}

// drop empties the set and returns every byte gpu caches for it. An empty
// set has nothing cached: reclaims only ever shrink the cached bytes below
// rows × rowBytes.
func (r *residentRows) drop(gpu *device.GPU) {
	if r.rows > 0 {
		r.trim(0)
		gpu.Uncache(gpu.Cached())
	}
}
