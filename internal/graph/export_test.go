package graph

import "buffalo/internal/stamp"

// ComputeLocality recomputes g's locality order, bypassing the once, so a
// benchmark can time the computation on one graph repeatedly.
var ComputeLocality = (*Graph).computeLocality

// PairScanClustering and LocalClustering let the external tests, which build
// graphs with datagen, hold the stamped count to the pair-scan oracle.
var PairScanClustering = pairScanClustering

func LocalClustering(g *Graph, v NodeID, marks *stamp.Table) float64 {
	return g.localClustering(v, marks)
}
