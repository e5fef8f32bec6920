package pipeline

import (
	"math"
	"strings"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/mat"
	"alicoco/internal/world"
)

func buildTiny(t *testing.T) *Artifacts {
	t.Helper()
	a, err := Build(TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestBuildProducesFourLayers(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.Freeze().ComputeStats()
	if s.PerKind["class"] == 0 || s.PerKind["primitive"] == 0 || s.PerKind["econcept"] == 0 || s.PerKind["item"] == 0 {
		t.Fatalf("missing layer: %+v", s.PerKind)
	}
	if s.PerKind["primitive"] != len(a.World.Primitives) {
		t.Fatalf("primitive count: net %d vs world %d", s.PerKind["primitive"], len(a.World.Primitives))
	}
	if s.PerKind["econcept"] != len(a.World.Frames) {
		t.Fatalf("econcept count: net %d vs world %d", s.PerKind["econcept"], len(a.World.Frames))
	}
	if s.PerKind["item"] != len(a.World.Items) {
		t.Fatalf("item count: net %d vs world %d", s.PerKind["item"], len(a.World.Items))
	}
}

func TestAllTwentyDomainClasses(t *testing.T) {
	a := buildTiny(t)
	for _, d := range world.Domains {
		if _, ok := a.DomainCls[d]; !ok {
			t.Fatalf("missing domain class %s", d)
		}
	}
	root := a.Net.FirstByNameKind("root", core.KindClass)
	kids := a.Net.Freeze().In(root, core.EdgeIsA)
	if len(kids) != 20 {
		t.Fatalf("root should have 20 domain children, got %d", len(kids))
	}
}

func TestCategoryPathInNet(t *testing.T) {
	a := buildTiny(t)
	// Figure 3 path: category -> clothing -> outerwear -> coat (class),
	// with the "coat" primitive instanceOf the leaf class.
	coatPrim := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	if coatPrim == core.InvalidNode {
		t.Fatal("coat primitive missing")
	}
	catCls := a.DomainCls[world.Category]
	if !a.Net.Freeze().IsAncestor(coatPrim, catCls) {
		t.Fatal("coat should reach the Category domain class via isA/instanceOf")
	}
}

func TestEConceptInterpretation(t *testing.T) {
	a := buildTiny(t)
	ob := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	if ob == core.InvalidNode {
		t.Fatal("outdoor barbecue concept missing")
	}
	prims := a.Net.Freeze().PrimitivesForEConcept(ob)
	names := map[string]bool{}
	for _, he := range prims {
		nd, _ := a.Net.Node(he.Peer)
		names[nd.Domain+":"+nd.Name] = true
	}
	if !names["Location:outdoor"] || !names["Event:barbecue"] {
		t.Fatalf("interpretation wrong: %v", names)
	}
}

func TestItemsAssociatedWithConcepts(t *testing.T) {
	a := buildTiny(t)
	ob := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	items := a.Net.Freeze().ItemsForEConcept(ob, 0)
	if len(items) == 0 {
		t.Fatal("no items for outdoor barbecue")
	}
	// Every associated item's title should end with a required category.
	f := a.World.Frames[0]
	reqNames := map[string]bool{}
	for _, leafID := range f.Required {
		reqNames[a.World.Prim(leafID).Name()] = true
	}
	for _, he := range items[:min(5, len(items))] {
		nd, _ := a.Net.Node(he.Peer)
		words := strings.Fields(nd.Name)
		if !reqNames[words[len(words)-1]] {
			t.Fatalf("item %q not in required categories %v", nd.Name, reqNames)
		}
	}
}

func TestEConceptIsAHierarchy(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.Freeze().ComputeStats()
	if s.IsAEConcept == 0 {
		t.Fatal("no isA edges in the e-commerce concept layer")
	}
}

func TestSchemaEdgesPresent(t *testing.T) {
	a := buildTiny(t)
	s := a.Net.Freeze().ComputeStats()
	if s.EdgesByKind["schema"] == 0 {
		t.Fatal("no schema edges")
	}
	// suitable_when must connect a category class to the Time domain.
	mooncake := a.Net.FirstByNameKind("mooncake", core.KindClass)
	found := false
	for _, he := range a.Net.Freeze().Out(mooncake, core.EdgeSchema) {
		if he.Rel.String() == "suitable_when" && he.Peer == a.DomainCls[world.Time] {
			found = true
		}
	}
	if !found {
		t.Fatal("mooncake should be suitable_when Time")
	}
}

// TestSnapshotRoundTrip: a one-shard generation holds exactly the built
// frozen net.
func TestSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	dir, man := saveShardDir(t, a, 1)
	shards, _, _, err := loadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := shards[0]
	if f.NumNodes() != a.Net.NumNodes() || f.NumEdges() != a.Net.NumEdges() {
		t.Fatal("snapshot round trip lost data")
	}
	if f.Checksum() != man.Shards[0].Checksum {
		t.Fatalf("loaded checksum %08x, manifest %08x", f.Checksum(), man.Shards[0].Checksum)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a1 := buildTiny(t)
	a2 := buildTiny(t)
	if a1.Net.NumNodes() != a2.Net.NumNodes() || a1.Net.NumEdges() != a2.Net.NumEdges() {
		t.Fatal("build not deterministic")
	}
}

// sameBits reports whether two vectors are bit-for-bit equal.
func sameBits(a, b mat.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestTrainModelsDeterministicSequential(t *testing.T) {
	opts := TinyOptions()
	opts.W2V.Workers = 1
	a, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := a.TrainModels()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := a.TrainModels()
	if err != nil {
		t.Fatal(err)
	}
	if m1.W2V == m2.W2V {
		t.Fatal("each call should train afresh")
	}
	if !sameBits(m1.W2V.In.Data, m2.W2V.In.Data) || !sameBits(m1.W2V.Out.Data, m2.W2V.Out.Data) {
		t.Fatal("word2vec In/Out differ between two Workers=1 trainings")
	}
	if len(m1.Glossary.Vecs) == 0 || len(m1.Glossary.Vecs) != len(m2.Glossary.Vecs) {
		t.Fatalf("glossary sizes %d vs %d", len(m1.Glossary.Vecs), len(m2.Glossary.Vecs))
	}
	for id, v := range m1.Glossary.Vecs {
		if !sameBits(v, m2.Glossary.Vecs[id]) {
			t.Fatalf("glossary vector %d differs between two Workers=1 trainings", id)
		}
	}
	if m1.LM == nil || m1.POS == nil || m1.D2V == nil {
		t.Fatal("missing model")
	}
}

// TestTrainModelsNeedsWorldAndCorpus: snapshot-loaded artifacts — a
// generation's shards and metadata, as a loaded facade's Internal holds
// them — carry no world or corpus to train on.
func TestTrainModelsNeedsWorldAndCorpus(t *testing.T) {
	dir, _ := saveShardDir(t, buildTiny(t), 1)
	shards, meta, _, err := loadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded := &Artifacts{Shards: shards, Serving: meta}
	if m, err := loaded.TrainModels(); err == nil || m != nil {
		t.Fatalf("TrainModels on snapshot-loaded artifacts = %v, %v; want an error", m, err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
