// Package datagen generates the seeded synthetic datasets that stand in for
// the paper's evaluation graphs (Table II: Cora, Pubmed, Reddit, OGBN-arxiv,
// OGBN-products, OGBN-papers).
//
// The substitution rule: what Buffalo's behaviour depends on is (a) whether
// the degree distribution has a power-law tail (bucket explosion), (b) the
// average degree (neighbor volume), (c) the average clustering coefficient
// (node redundancy across micro-batches, the C term of Eq. 1), and (d) the
// feature dimension (per-node byte cost). Generators here reproduce those
// four knobs at ~100-1000x reduced node counts:
//
//   - power-law graphs use a geometric-locality configuration model: an
//     exact Pareto degree sequence (low-degree bulk plus scale-free hubs)
//     whose stubs are matched preferentially to nearby ring positions, so
//     neighborhoods overlap and the clustering coefficient is tunable via
//     the locality scale;
//   - non-power-law graphs (Cora, Pubmed) use Watts-Strogatz small-world
//     rings (narrow degree distribution, tunable clustering).
//
// Features are class-center Gaussians smoothed over the graph and labels are
// neighbor-correlated, so GNN training genuinely converges (Fig 17/Table IV).
package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"buffalo/internal/graph"
	"buffalo/internal/tensor"
)

// Model selects the random-graph family used by a Spec.
type Model int

const (
	// ClusteredPowerLaw is a geometric-locality configuration model: node
	// degrees follow an exact Pareto(KMin, Alpha) sequence and stubs match
	// to ring-nearby partners (window scaled by Locality), which yields the
	// combination Table II's Reddit/arxiv/products/papers graphs show — a
	// power-law degree tail with controllable clustering.
	ClusteredPowerLaw Model = iota
	// WattsStrogatz is a rewired ring lattice: narrow degree distribution
	// (no power law) with tunable clustering.
	WattsStrogatz
)

// Spec describes one synthetic dataset.
type Spec struct {
	Name       string
	Model      Model
	Nodes      int
	FeatDim    int
	NumClasses int

	// ClusteredPowerLaw parameters. KMin and Alpha shape the Pareto degree
	// sequence (mean ~ KMin*(Alpha-1)/(Alpha-2)); Locality scales the stub
	// matching window relative to node degree — smaller means denser, more
	// clustered neighborhoods.
	KMin     int
	Alpha    float64
	Locality float64

	// WattsStrogatz parameters.
	K      int     // ring degree (even)
	Rewire float64 // rewiring probability

	// Homophily is the probability that a node copies a neighbor's label
	// instead of drawing uniformly; higher values make the node
	// classification task easier.
	Homophily float64

	// Paper records the full-size Table II characteristics for reporting.
	Paper PaperStats
}

// PaperStats are the characteristics the paper reports for the full-size
// dataset, used by the experiment harness to print paper-vs-measured rows.
type PaperStats struct {
	Nodes    string
	Edges    string
	AvgDeg   float64
	AvgCoef  float64
	PowerLaw bool
	FeatDim  int
}

// Dataset is a generated graph with node features and labels.
type Dataset struct {
	Spec       Spec
	Graph      *graph.Graph
	Features   []float32 // row-major [Nodes x FeatDim]
	Labels     []int32   // len Nodes, values in [0, NumClasses)
	NumClasses int
}

// FeatDim reports the feature dimensionality.
func (d *Dataset) FeatDim() int { return d.Spec.FeatDim }

// NumNodes reports the node count.
func (d *Dataset) NumNodes() int { return d.Graph.NumNodes() }

// FeatureRow returns the feature vector of node v (aliasing Features).
func (d *Dataset) FeatureRow(v graph.NodeID) []float32 {
	dim := d.Spec.FeatDim
	return d.Features[int(v)*dim : int(v)*dim+dim]
}

// FeatureTable returns the [nodes x cols] feature matrix a model with cols
// input columns reads: a view of Features (not copied, so the caller must not
// write it) when cols is the full width, otherwise a copy of each row's first
// cols values. Panics unless 0 < cols <= FeatDim.
func (d *Dataset) FeatureTable(cols int) *tensor.Matrix {
	dim := d.Spec.FeatDim
	if cols < 1 || cols > dim {
		panic("datagen: FeatureTable cols outside [1, FeatDim]")
	}
	if cols == dim {
		return tensor.FromSlice(len(d.Features)/dim, dim, d.Features)
	}
	t := tensor.New(len(d.Features)/dim, cols)
	for v := 0; v < t.Rows; v++ {
		copy(t.Row(v), d.Features[v*dim:v*dim+cols])
	}
	return t
}

// Specs returns the registry of the six Table II datasets at their reduced
// ("mini") scales. The map key is the lower-case dataset name used by CLIs.
func Specs() map[string]Spec {
	specs := []Spec{
		{
			Name: "cora", Model: WattsStrogatz, Nodes: 2708, FeatDim: 256,
			NumClasses: 7, K: 4, Rewire: 0.22, Homophily: 0.85,
			Paper: PaperStats{Nodes: "2.7K", Edges: "10K", AvgDeg: 3.9, AvgCoef: 0.24, PowerLaw: false, FeatDim: 1433},
		},
		{
			Name: "pubmed", Model: WattsStrogatz, Nodes: 6000, FeatDim: 128,
			NumClasses: 3, K: 8, Rewire: 0.55, Homophily: 0.8,
			Paper: PaperStats{Nodes: "19K", Edges: "88K", AvgDeg: 8.9, AvgCoef: 0.06, PowerLaw: false, FeatDim: 500},
		},
		{
			Name: "reddit", Model: ClusteredPowerLaw, Nodes: 8000, FeatDim: 160,
			NumClasses: 41, KMin: 12, Alpha: 2.25, Locality: 0.9, Homophily: 0.7,
			Paper: PaperStats{Nodes: "0.2M", Edges: "114.6M", AvgDeg: 492, AvgCoef: 0.579, PowerLaw: true, FeatDim: 602},
		},
		{
			Name: "ogbn-arxiv", Model: ClusteredPowerLaw, Nodes: 16000, FeatDim: 128,
			NumClasses: 40, KMin: 3, Alpha: 2.2, Locality: 5.0, Homophily: 0.7,
			Paper: PaperStats{Nodes: "0.16M", Edges: "2.31M", AvgDeg: 13.7, AvgCoef: 0.226, PowerLaw: true, FeatDim: 128},
		},
		{
			Name: "ogbn-products", Model: ClusteredPowerLaw, Nodes: 24000, FeatDim: 100,
			NumClasses: 47, KMin: 12, Alpha: 2.3, Locality: 1.5, Homophily: 0.7,
			Paper: PaperStats{Nodes: "2.45M", Edges: "61.86M", AvgDeg: 50.5, AvgCoef: 0.411, PowerLaw: true, FeatDim: 100},
		},
		{
			Name: "ogbn-papers", Model: ClusteredPowerLaw, Nodes: 120000, FeatDim: 128,
			NumClasses: 172, KMin: 7, Alpha: 2.3, Locality: 14.0, Homophily: 0.7,
			Paper: PaperStats{Nodes: "111.1M", Edges: "1.6B", AvgDeg: 29.1, AvgCoef: 0.085, PowerLaw: true, FeatDim: 128},
		},
	}
	m := make(map[string]Spec, len(specs))
	for _, s := range specs {
		m[s.Name] = s
	}
	return m
}

// Names returns the registry dataset names in the paper's Table II order.
func Names() []string {
	return []string{"cora", "pubmed", "reddit", "ogbn-arxiv", "ogbn-products", "ogbn-papers"}
}

// Load generates the named registry dataset with the given seed.
func Load(name string, seed int64) (*Dataset, error) {
	spec, ok := Specs()[name]
	if !ok {
		known := Names()
		sort.Strings(known)
		return nil, fmt.Errorf("datagen: unknown dataset %q (known: %v)", name, known)
	}
	return Generate(spec, seed)
}

// Generate builds a dataset from a spec. The same (spec, seed) pair always
// produces the identical dataset.
func Generate(spec Spec, seed int64) (*Dataset, error) {
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("datagen: %s: Nodes must be positive", spec.Name)
	}
	if spec.NumClasses <= 1 {
		return nil, fmt.Errorf("datagen: %s: need at least 2 classes", spec.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	var g *graph.Graph
	var err error
	switch spec.Model {
	case ClusteredPowerLaw:
		g, err = clusteredPowerLaw(rng, spec.Nodes, spec.KMin, spec.Alpha, spec.Locality)
	case WattsStrogatz:
		g, err = wattsStrogatz(rng, spec.Nodes, spec.K, spec.Rewire)
	default:
		err = fmt.Errorf("datagen: %s: unknown model %d", spec.Name, spec.Model)
	}
	if err != nil {
		return nil, err
	}
	// Relabel nodes with a random permutation: both generators place nodes
	// on a ring, so raw IDs would encode geometry and make ID-contiguous
	// (Range) partitions unrealistically local. Real dataset IDs carry no
	// such structure.
	g = relabel(rng, g)
	labels := homophilousLabels(rng, g, spec.NumClasses, spec.Homophily)
	features := classFeatures(rng, g, labels, spec.NumClasses, spec.FeatDim)
	return &Dataset{
		Spec:       spec,
		Graph:      g,
		Features:   features,
		Labels:     labels,
		NumClasses: spec.NumClasses,
	}, nil
}

// clusteredPowerLaw builds a graph whose degree distribution is an exact
// Pareto(kmin, alpha) sample — low-degree bulk plus scale-free hubs, the
// Fig 1 shape — while the average local clustering coefficient is tunable.
//
// Construction ("geometric-locality configuration model"): each node v on a
// ring draws a target degree k_v; every stub of v is matched to a node at a
// geometrically distributed ring distance with mean ~ locality * k_v that
// still has free stubs. Because a node's partners concentrate in one window
// and those partners match within overlapping windows, triangles are common;
// smaller locality means denser windows and higher clustering.
func clusteredPowerLaw(rng *rand.Rand, n, kmin int, alpha, locality float64) (*graph.Graph, error) {
	if kmin < 1 {
		return nil, fmt.Errorf("datagen: clustered-power-law KMin must be >= 1, got %d", kmin)
	}
	if alpha <= 2 {
		return nil, fmt.Errorf("datagen: clustered-power-law Alpha must be > 2 for a finite mean, got %g", alpha)
	}
	if locality <= 0 {
		return nil, fmt.Errorf("datagen: clustered-power-law Locality must be positive, got %g", locality)
	}
	if n < 4*kmin {
		return nil, fmt.Errorf("datagen: clustered-power-law needs n >= 4*KMin (n=%d KMin=%d)", n, kmin)
	}
	// Pareto degree sequence, capped so hub windows fit on the ring.
	kmax := n / 8
	if kmax < kmin {
		kmax = kmin
	}
	rem := make([]int, n) // free stubs per node
	for v := 0; v < n; v++ {
		k := int(float64(kmin) * math.Pow(rng.Float64(), -1/(alpha-1)))
		if k > kmax {
			k = kmax
		}
		rem[v] = k
	}
	adj := make([][]graph.NodeID, n)
	connect := func(u, v graph.NodeID) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		rem[u]--
		rem[v]--
	}
	hasEdge := func(u, v graph.NodeID) bool {
		a := adj[u]
		if b := adj[v]; len(b) < len(a) {
			a, v = b, u
		}
		for _, w := range a {
			if w == v {
				return true
			}
		}
		return false
	}
	// Match stubs in node order. Each stub probes a geometric ring offset
	// scaled by the node's own degree, then scans outward for a partner
	// with free stubs. A bounded scan keeps this O(E * small constant);
	// stubs that find no partner are dropped (degree loss is negligible
	// and unbiased).
	for v := 0; v < n; v++ {
		for rem[v] > 0 {
			mean := locality * float64(len(adj[v])+rem[v])
			if mean < 2 {
				mean = 2
			}
			matched := false
			for attempt := 0; attempt < 8 && !matched; attempt++ {
				// Geometric-ish offset: exponential with the window mean.
				off := 1 + int(rng.ExpFloat64()*mean)
				if off >= n/2 {
					off = 1 + rng.Intn(n/2-1)
				}
				dir := 1
				if rng.Intn(2) == 0 {
					dir = -1
				}
				u := (v + dir*off%n + n) % n
				// Scan outward from u (both rotations) for free stubs.
				// scan can exceed n on a tiny ring, so lift by maxScan rings
				// (not one) to keep the dividend non-negative.
				const maxScan = 64
				for scan := 0; scan < maxScan; scan++ {
					cand := graph.NodeID((int(u) + scan*dir + maxScan*n) % n)
					if int(cand) != v && rem[cand] > 0 && !hasEdge(graph.NodeID(v), cand) {
						connect(graph.NodeID(v), cand)
						matched = true
						break
					}
				}
			}
			if !matched {
				rem[v]-- // drop the stub
			}
		}
	}
	return graph.FromAdjacency(adj), nil
}

// wattsStrogatz builds a ring lattice where each node links to its K nearest
// ring neighbors, then rewires each edge's far endpoint with probability
// rewire to a uniform random node.
func wattsStrogatz(rng *rand.Rand, n, k int, rewire float64) (*graph.Graph, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("datagen: watts-strogatz K must be even and >= 2, got %d", k)
	}
	if n <= k {
		return nil, fmt.Errorf("datagen: watts-strogatz needs n > K (n=%d K=%d)", n, k)
	}
	adj := make([][]graph.NodeID, n)
	addEdge := func(u, v graph.NodeID) {
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			u := graph.NodeID((v + j) % n)
			target := u
			if rng.Float64() < rewire {
				target = graph.NodeID(rng.Intn(n))
				if target == graph.NodeID(v) {
					target = u
				}
			}
			addEdge(graph.NodeID(v), target)
		}
	}
	return graph.FromAdjacency(adj), nil
}

// relabel applies a random node-ID permutation to the graph.
func relabel(rng *rand.Rand, g *graph.Graph) *graph.Graph {
	n := g.NumNodes()
	perm := rng.Perm(n)
	lists := make([][]graph.NodeID, n)
	for v := 0; v < n; v++ {
		nv := perm[v]
		nbs := g.Neighbors(graph.NodeID(v))
		lists[nv] = make([]graph.NodeID, len(nbs))
		for i, u := range nbs {
			lists[nv][i] = graph.NodeID(perm[u])
		}
	}
	return graph.FromAdjacency(lists)
}

// homophilousLabels assigns labels so that neighbors tend to share a class:
// in node order each node copies a uniformly chosen already-labeled neighbor
// with probability homophily, otherwise draws a uniform class.
func homophilousLabels(rng *rand.Rand, g *graph.Graph, classes int, homophily float64) []int32 {
	n := g.NumNodes()
	labels := make([]int32, n)
	assigned := make([]bool, n)
	order := rng.Perm(n)
	for _, vi := range order {
		v := graph.NodeID(vi)
		label := int32(rng.Intn(classes))
		if rng.Float64() < homophily {
			nbs := g.Neighbors(v)
			// Scan from a random start for an already-labeled neighbor.
			if len(nbs) > 0 {
				start := rng.Intn(len(nbs))
				for i := 0; i < len(nbs); i++ {
					u := nbs[(start+i)%len(nbs)]
					if assigned[u] {
						label = labels[u]
						break
					}
				}
			}
		}
		labels[v] = label
		assigned[v] = true
	}
	return labels
}

// classFeatures draws one Gaussian center per class and emits
// center[label(v)] + noise, then smooths once over the graph (mean with
// neighbors) so the features carry graph-structured signal like real
// citation/product embeddings do.
func classFeatures(rng *rand.Rand, g *graph.Graph, labels []int32, classes, dim int) []float32 {
	centers := make([]float32, classes*dim)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64())
	}
	n := g.NumNodes()
	raw := make([]float32, n*dim)
	for v := 0; v < n; v++ {
		c := centers[int(labels[v])*dim : int(labels[v])*dim+dim]
		row := raw[v*dim : v*dim+dim]
		for j := 0; j < dim; j++ {
			row[j] = c[j] + 0.5*float32(rng.NormFloat64())
		}
	}
	out := make([]float32, n*dim)
	for v := 0; v < n; v++ {
		row := out[v*dim : v*dim+dim]
		copy(row, raw[v*dim:v*dim+dim])
		nbs := g.Neighbors(graph.NodeID(v))
		if len(nbs) == 0 {
			continue
		}
		// Average over at most 16 neighbors: smoothing quality saturates and
		// this bounds generation cost on hub nodes.
		limit := len(nbs)
		if limit > 16 {
			limit = 16
		}
		for i := 0; i < limit; i++ {
			u := nbs[i]
			urow := raw[int(u)*dim : int(u)*dim+dim]
			for j := 0; j < dim; j++ {
				row[j] += urow[j]
			}
		}
		inv := 1 / float32(limit+1)
		for j := 0; j < dim; j++ {
			row[j] *= inv
		}
	}
	return out
}

// Split deterministically partitions the node IDs into a training and a
// held-out evaluation set with the given training fraction. Only tests call
// it; it stays as API of the Dataset type the root package re-exports.
func (d *Dataset) Split(seed int64, trainFrac float64) (train, eval []graph.NodeID) {
	n := d.NumNodes()
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	cut := int(trainFrac * float64(n))
	if cut < 1 {
		cut = 1
	}
	if cut >= n {
		cut = n - 1
	}
	train = make([]graph.NodeID, cut)
	eval = make([]graph.NodeID, n-cut)
	for i, p := range perm[:cut] {
		train[i] = graph.NodeID(p)
	}
	for i, p := range perm[cut:] {
		eval[i] = graph.NodeID(p)
	}
	return train, eval
}
