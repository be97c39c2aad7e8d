package graph

// ComputeLocality recomputes g's locality order, bypassing the once, so a
// benchmark can time the computation on one graph repeatedly.
var ComputeLocality = (*Graph).computeLocality
