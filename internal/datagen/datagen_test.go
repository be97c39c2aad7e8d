package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"buffalo/internal/graph"
)

func TestSpecsRegistryComplete(t *testing.T) {
	specs := Specs()
	for _, name := range Names() {
		s, ok := specs[name]
		if !ok {
			t.Fatalf("registry missing %q", name)
		}
		if s.Name != name {
			t.Errorf("spec name %q under key %q", s.Name, name)
		}
		if s.Nodes <= 0 || s.FeatDim <= 0 || s.NumClasses < 2 {
			t.Errorf("%s: bad sizes %+v", name, s)
		}
	}
	if len(specs) != len(Names()) {
		t.Errorf("registry has %d entries, Names has %d", len(specs), len(Names()))
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("want error for unknown dataset")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Load("cora", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load("cora", 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.Graph.NumEdges() != b.Graph.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", a.Graph.NumEdges(), b.Graph.NumEdges())
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("labels differ at %d", i)
		}
	}
	for i := range a.Features {
		if a.Features[i] != b.Features[i] {
			t.Fatalf("features differ at %d", i)
		}
	}
	c, err := Load("cora", 43)
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.NumEdges() == a.Graph.NumEdges() && c.Labels[0] == a.Labels[0] && c.Labels[1] == a.Labels[1] && c.Labels[2] == a.Labels[2] {
		// Different seeds producing a fully identical prefix would be suspicious,
		// but edge-count collision alone is possible; only fail on full match.
		same := true
		for i := range c.Labels {
			if c.Labels[i] != a.Labels[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical labels")
		}
	}
}

// datasetPins holds every registry dataset at seed 7, byte for byte: the
// FNV-64a of its adjacency (offsets, then lists), of its feature bits and of
// its labels, and the float64 bits of ApproxClusteringCoefficient(7, 2000).
// A change to the generator, FromAdjacency or the clustering count that moves
// any of them moves every K, plan and loss downstream.
var datasetPins = map[string]struct{ adj, feat, labels, coef uint64 }{
	"cora":          {0x76dbc4635ec646d9, 0x71e1a7074811abf1, 0x16319b3bceed9880, 0x3fd0b69f828b9d73},
	"pubmed":        {0xaca8abddeee07539, 0x5923dac0737a7f99, 0x57ba556bfbffc1a7, 0x3faff10446d18d87},
	"reddit":        {0x2b2429211dbd589f, 0xd19b4a3864a316ea, 0x53ee5cba29da0788, 0x3fe0cf748826c1ea},
	"ogbn-arxiv":    {0x8055893782271d39, 0xd5914102f4077b6b, 0xe9982e14ce3af8b0, 0x3fc8107dc7ffc613},
	"ogbn-products": {0xea62ce4f329d3912, 0x6c00ef8c367487f1, 0xd59b332bef35da1c, 0x3fd7332b6b56e57f},
	"ogbn-papers":   {0x9852fda7407786ea, 0x6cb3306e29b6f4e7, 0x5079fc7bc5c61c5e, 0x3fb1c87e5b220e89},
}

// hashDataset returns the FNV-64a of ds's adjacency (the CSR offsets, then
// the concatenated neighbour lists), feature bits and labels, little-endian.
func hashDataset(ds *Dataset) (adj, feat, labels uint64) {
	g := ds.Graph
	h := fnv.New64a()
	var buf []byte
	var off int64
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	for v := 0; v < g.NumNodes(); v++ {
		off += int64(g.Degree(graph.NodeID(v)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(off))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(u))
		}
	}
	h.Write(buf)
	adj = h.Sum64()
	h.Reset()
	buf = buf[:0]
	for _, x := range ds.Features {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
	}
	h.Write(buf)
	feat = h.Sum64()
	h.Reset()
	buf = buf[:0]
	for _, l := range ds.Labels {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(l))
	}
	h.Write(buf)
	return adj, feat, h.Sum64()
}

func TestPowerLawFlagsMatchTableII(t *testing.T) {
	for _, name := range Names() {
		ds, err := Load(name, 7)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := ds.Graph.IsPowerLaw()
		want := ds.Spec.Paper.PowerLaw
		if got != want {
			t.Errorf("%s: IsPowerLaw = %v, Table II says %v (max deg %d, avg %.1f)",
				name, got, want, ds.Graph.MaxDegree(), ds.Graph.AvgDegree())
		}
		adj, feat, labels := hashDataset(ds)
		coef := math.Float64bits(ds.Graph.ApproxClusteringCoefficient(7, 2000))
		if pin := datasetPins[name]; adj != pin.adj || feat != pin.feat || labels != pin.labels || coef != pin.coef {
			t.Errorf("%s: adj %#x feat %#x labels %#x coef %#x, pinned %#x %#x %#x %#x",
				name, adj, feat, labels, coef, pin.adj, pin.feat, pin.labels, pin.coef)
		}
	}
}

func TestClusteredPowerLawDegreeTail(t *testing.T) {
	ds, err := Load("ogbn-arxiv", 11)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	avg := g.AvgDegree()
	// Avg degree ~ 2M = 14, within 20%.
	if avg < 11 || avg > 17 {
		t.Errorf("arxiv-mini avg degree = %.2f, want ~14", avg)
	}
	if float64(g.MaxDegree()) < 10*avg {
		t.Errorf("no heavy tail: max %d vs avg %.1f", g.MaxDegree(), avg)
	}
	// Long tail: most nodes below the mean, few far above (Fig 1 shape).
	below := 0
	for v := 0; v < g.NumNodes(); v++ {
		if float64(g.Degree(graph.NodeID(v))) <= avg {
			below++
		}
	}
	if frac := float64(below) / float64(g.NumNodes()); frac < 0.6 {
		t.Errorf("only %.2f of nodes at/below mean degree; want skewed distribution", frac)
	}
}

func TestWattsStrogatzNarrowDegrees(t *testing.T) {
	ds, err := Load("cora", 11)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	if float64(g.MaxDegree()) > 5*g.AvgDegree() {
		t.Errorf("cora-mini degree tail too heavy: max %d avg %.1f", g.MaxDegree(), g.AvgDegree())
	}
	if avg := g.AvgDegree(); math.Abs(avg-4) > 1 {
		t.Errorf("cora-mini avg degree = %.2f, want ~3.9", avg)
	}
}

func TestClusteringCoefficientBands(t *testing.T) {
	// Reduced-scale generators cannot hit Table II coefficients exactly, but
	// the ordering and rough magnitude must hold: reddit/products clustered,
	// pubmed/papers sparse.
	coef := map[string]float64{}
	for _, name := range []string{"cora", "pubmed", "reddit", "ogbn-products"} {
		ds, err := Load(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		coef[name] = ds.Graph.ApproxClusteringCoefficient(5, 2000)
	}
	if coef["pubmed"] >= coef["cora"] {
		t.Errorf("C(pubmed)=%.3f should be below C(cora)=%.3f", coef["pubmed"], coef["cora"])
	}
	if coef["reddit"] < 0.2 {
		t.Errorf("C(reddit)=%.3f too low; paper reports 0.579", coef["reddit"])
	}
	if coef["ogbn-products"] < 0.1 {
		t.Errorf("C(products)=%.3f too low; paper reports 0.411", coef["ogbn-products"])
	}
}

func TestLabelsAndFeaturesShape(t *testing.T) {
	ds, err := Load("pubmed", 3)
	if err != nil {
		t.Fatal(err)
	}
	n, dim := ds.NumNodes(), ds.FeatDim()
	if len(ds.Labels) != n {
		t.Fatalf("labels len %d, want %d", len(ds.Labels), n)
	}
	if len(ds.Features) != n*dim {
		t.Fatalf("features len %d, want %d", len(ds.Features), n*dim)
	}
	seen := make(map[int32]bool)
	for _, l := range ds.Labels {
		if l < 0 || int(l) >= ds.NumClasses {
			t.Fatalf("label %d out of range", l)
		}
		seen[l] = true
	}
	if len(seen) < 2 {
		t.Fatal("degenerate labeling: fewer than 2 classes present")
	}
	row := ds.FeatureRow(0)
	if len(row) != dim {
		t.Fatalf("FeatureRow len %d, want %d", len(row), dim)
	}
}

func TestHomophily(t *testing.T) {
	ds, err := Load("cora", 9)
	if err != nil {
		t.Fatal(err)
	}
	g := ds.Graph
	same, total := 0, 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			total++
			if ds.Labels[v] == ds.Labels[u] {
				same++
			}
		}
	}
	frac := float64(same) / float64(total)
	// Uniform labels over 7 classes would give ~0.14; homophilous assignment
	// must be far above chance for GNNs to learn anything.
	if frac < 0.4 {
		t.Errorf("edge homophily = %.2f, want >= 0.4", frac)
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 0, FeatDim: 4, NumClasses: 2, KMin: 2, Alpha: 2.5, Locality: 1},
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 40, FeatDim: 4, NumClasses: 1, KMin: 2, Alpha: 2.5, Locality: 1},
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 40, FeatDim: 4, NumClasses: 2, KMin: 0, Alpha: 2.5, Locality: 1},
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 40, FeatDim: 4, NumClasses: 2, KMin: 2, Alpha: 1.5, Locality: 1},
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 40, FeatDim: 4, NumClasses: 2, KMin: 2, Alpha: 2.5, Locality: 0},
		{Name: "x", Model: ClusteredPowerLaw, Nodes: 4, FeatDim: 4, NumClasses: 2, KMin: 6, Alpha: 2.5, Locality: 1},
		{Name: "x", Model: WattsStrogatz, Nodes: 10, FeatDim: 4, NumClasses: 2, K: 3},
		{Name: "x", Model: WattsStrogatz, Nodes: 4, FeatDim: 4, NumClasses: 2, K: 6},
		{Name: "x", Model: Model(99), Nodes: 10, FeatDim: 4, NumClasses: 2},
	}
	for i, s := range bad {
		if _, err := Generate(s, 1); err == nil {
			t.Errorf("case %d: want error for %+v", i, s)
		}
	}
}

// A ring smaller than the stub matcher's 64-step scan used to index rem[]
// with a negative candidate.
func TestClusteredPowerLawTinyRing(t *testing.T) {
	for n := 8; n < 64; n += 5 {
		for seed := int64(0); seed < 20; seed++ {
			spec := Spec{Name: "tiny", Model: ClusteredPowerLaw, Nodes: n, FeatDim: 1, NumClasses: 2, KMin: 1 + int(seed%2), Alpha: 2.2, Locality: 0.5}
			ds, err := Generate(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Graph.NumNodes() != n {
				t.Fatalf("n=%d seed=%d: %d nodes", n, seed, ds.Graph.NumNodes())
			}
		}
	}
}
