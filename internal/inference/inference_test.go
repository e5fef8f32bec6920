package inference

import (
	"bytes"
	"runtime"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/pipeline"
)

func buildNet(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	a, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// loadedShards freezes n into count shards, saves each and loads it back,
// and assembles the loaded shards into a set.
func loadedShards(t *testing.T, n *core.Net, count int) *core.ShardSet {
	t.Helper()
	shards := n.FreezeShards(count)
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadFrozen(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = loaded
	}
	set, err := core.NewShardSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestInferImplicitRelations(t *testing.T) {
	a := buildNet(t)
	net := a.Net.Freeze()
	m := NewMiner(net, DefaultConfig())
	rels := m.InferAll()
	if len(rels) == 0 {
		t.Fatal("no implicit relations inferred")
	}
	for _, r := range rels {
		if r.Lift < 2.0 || r.Coverage < 0.3 {
			t.Fatalf("thresholds violated: %+v", r)
		}
		nd, _ := a.Net.Node(r.Primitive)
		if nd.Domain == "Category" || nd.Domain == "Brand" {
			t.Fatalf("inadmissible domain %s inferred", nd.Domain)
		}
		// Must not duplicate an existing interpretation.
		for _, he := range net.Out(r.Concept, core.EdgeInterpretedBy) {
			if he.Peer == r.Primitive && he.Rel() == "" {
				t.Fatal("inferred relation duplicates an explicit one")
			}
		}
	}
}

// The planted world guarantees an analogue of the paper's example: the
// "keep warm for kids" concept's items are winter categories, so a Function
// or Material concentration should surface for some concept.
func TestInferenceFindsMeaningfulConcentrations(t *testing.T) {
	a := buildNet(t)
	net := a.Net.Freeze()
	m := NewMiner(net, Config{MinLift: 1.5, MinCoverage: 0.25, MinItems: 4})
	found := false
	for _, c := range net.NodesOfKind(core.KindEConcept) {
		rels := m.InferConcept(c)
		if len(rels) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no concept has any attribute concentration")
	}
}

func TestInferConceptSkipsSmallConcepts(t *testing.T) {
	a := buildNet(t)
	cfg := DefaultConfig()
	cfg.MinItems = 1 << 30
	m := NewMiner(a.Net.Freeze(), cfg)
	if rels := m.InferAll(); len(rels) != 0 {
		t.Fatalf("MinItems not respected: %d relations", len(rels))
	}
}

func TestDomainRestriction(t *testing.T) {
	a := buildNet(t)
	cfg := Config{MinLift: 1.2, MinCoverage: 0.2, MinItems: 4, Domains: []string{"Function"}}
	m := NewMiner(a.Net.Freeze(), cfg)
	for _, r := range m.InferAll() {
		if r.Domain != "Function" {
			t.Fatalf("domain restriction violated: %+v", r)
		}
	}
}

func TestMaterialize(t *testing.T) {
	a := buildNet(t)
	m := NewMiner(a.Net.Freeze(), DefaultConfig())
	rels := m.InferAll()
	if len(rels) == 0 {
		t.Skip("nothing to materialize in tiny world")
	}
	before := a.Net.NumEdges()
	added, err := m.Materialize(a.Net, rels)
	if err != nil {
		t.Fatal(err)
	}
	if added != len(rels) {
		t.Fatalf("added %d of %d", added, len(rels))
	}
	if a.Net.NumEdges() != before+added {
		t.Fatal("edge count mismatch after materialize")
	}
	// Materialized edges are queryable and tagged "implied".
	r := rels[0]
	foundImplied := false
	for _, he := range a.Net.Freeze().Out(r.Concept, core.EdgeInterpretedBy) {
		if he.Peer == r.Primitive && he.Rel() == "implied" {
			foundImplied = true
			if he.Weight() > 0.99 {
				t.Fatal("implied weight should be capped below manual edges")
			}
		}
	}
	if !foundImplied {
		t.Fatal("materialized edge not found")
	}
	// Idempotent: re-materializing updates weights, adds no edges.
	before = a.Net.NumEdges()
	if _, err := m.Materialize(a.Net, rels); err != nil {
		t.Fatal(err)
	}
	if a.Net.NumEdges() != before {
		t.Fatal("re-materialize duplicated edges")
	}
}

// TestMinerOnFrozenSnapshot is the serving configuration: mine from a
// 3-shard partition saved and loaded back, as a served catalog holds it,
// check it against mining the net's one-shard freeze ("live"), materialize
// into the live net, and re-freeze.
func TestMinerOnFrozenSnapshot(t *testing.T) {
	a := buildNet(t)
	frozen := loadedShards(t, a.Net, 3)
	live := NewMiner(a.Net.Freeze(), DefaultConfig()).InferAll()
	snap := NewMiner(frozen, DefaultConfig())
	fromSnap := snap.InferAll()
	if len(fromSnap) != len(live) {
		t.Fatalf("frozen mining found %d relations, live found %d", len(fromSnap), len(live))
	}
	for i := range live {
		if live[i] != fromSnap[i] {
			t.Fatalf("relation %d differs: live %+v vs frozen %+v", i, live[i], fromSnap[i])
		}
	}
	if len(fromSnap) == 0 {
		t.Skip("nothing to materialize in tiny world")
	}
	before := a.Net.NumEdges()
	added, err := snap.Materialize(a.Net, fromSnap)
	if err != nil {
		t.Fatal(err)
	}
	if a.Net.NumEdges() != before+added {
		t.Fatal("materializing from a frozen miner lost edges")
	}
	refrozen := a.Net.Freeze()
	if refrozen.NumEdges() != a.Net.NumEdges() {
		t.Fatal("re-freeze did not pick up materialized edges")
	}
}

func TestRelationsSortedByLift(t *testing.T) {
	a := buildNet(t)
	net := a.Net.Freeze()
	m := NewMiner(net, Config{MinLift: 1.2, MinCoverage: 0.2, MinItems: 4})
	for _, c := range net.NodesOfKind(core.KindEConcept) {
		rels := m.InferConcept(c)
		for i := 1; i < len(rels); i++ {
			if rels[i].Lift > rels[i-1].Lift {
				t.Fatal("relations not sorted by lift")
			}
		}
	}
}

// TestInferAllParallelDeterministic proves the fanned-out scan returns the
// same relations in the same order regardless of worker count: the run is
// repeated with GOMAXPROCS forced above 1 (par.For sizes its worker pool
// from it) and compared element-wise against itself and across stores.
func TestInferAllParallelDeterministic(t *testing.T) {
	a := buildNet(t)
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	m := NewMiner(a.Net.Freeze(), DefaultConfig())
	want := m.InferAll()
	if len(want) == 0 {
		t.Fatal("no relations to compare")
	}
	for run := 0; run < 5; run++ {
		got := m.InferAll()
		if len(got) != len(want) {
			t.Fatalf("run %d: %d relations, want %d", run, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("run %d: relation %d = %+v, want %+v", run, i, got[i], want[i])
			}
		}
	}
	// Ordering contract: grouped by concept in ascending node-id order.
	for i := 1; i < len(want); i++ {
		if want[i].Concept < want[i-1].Concept {
			t.Fatalf("relations not grouped by ascending concept at %d", i)
		}
	}
}
