// Package alicoco is the public API of the AliCoCo reproduction: build (or
// load) the e-commerce cognitive concept net, inspect it, and run the two
// flagship applications — semantic search with concept cards and cognitive
// recommendation (Luo et al., SIGMOD 2020).
//
// Quick start:
//
//	coco, err := alicoco.Build(alicoco.Small())
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := coco.SearchCtx(context.Background(), "outdoor barbecue", 10)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Println(res.Cards[0].Name, res.Cards[0].Items)
//
// Each operation has one single form and one batch form, both taking a
// context: SearchCtx and SearchBatchBytesCtx, RecommendCtx and
// RecommendBatchCtx.
package alicoco

import (
	"errors"
	"strings"
	"sync"

	"alicoco/internal/core"
	"alicoco/internal/inference"
	"alicoco/internal/pipeline"
	"alicoco/internal/serving"
	"alicoco/internal/snapstore"
)

// DefaultQueryCacheCapacity and the query result types are the serving
// core's.
const DefaultQueryCacheCapacity = serving.DefaultQueryCacheCapacity

type (
	SearchResult        = serving.SearchResult
	Recommendation      = serving.Recommendation
	BatchRecommendation = serving.BatchRecommendation
	Item                = serving.Item
	ConceptCard         = serving.ConceptCard
	Concept             = serving.Concept
	Stats               = serving.Stats
	ServingInfo         = serving.ServingInfo
	ShardServingInfo    = serving.ShardServingInfo
)

// Options sizes the net construction. Use Small or Default and tweak.
type Options struct {
	// Seed makes the whole build deterministic.
	Seed int64
	// ItemsPerCategory controls the item layer size.
	ItemsPerCategory int
	// Scenarios controls how many shopping scenarios beyond the
	// handcrafted set are generated.
	Scenarios int
	// CorpusSentences controls the synthetic corpus size per source.
	CorpusSentences int
}

// Small returns a fast, test-sized configuration.
func Small() Options {
	return Options{Seed: 7, ItemsPerCategory: 3, Scenarios: 20, CorpusSentences: 300}
}

// Default returns the laptop-scale configuration used by the experiment
// harness.
func Default() Options {
	return Options{Seed: 42, ItemsPerCategory: 12, Scenarios: 120, CorpusSentences: 2000}
}

// CoCo is a built (or snapshot-loaded) concept net plus its application
// engines: the serving core (internal/serving), whose query methods it
// promotes, and the build, which only Build and BuildSharded set.
type CoCo struct {
	*serving.Core

	mu   sync.Mutex          // serializes edits and refreezes of the live net with its saves
	arts *pipeline.Artifacts // the build; nil on a loaded CoCo, and no reload replaces it

	// shardCount is the partition size live refreezes maintain: a CoCo
	// built with BuildSharded re-partitions into the same number of shards
	// on every refreeze (InferImplicitRelations); 1 freezes the whole net.
	// Written only at construction, before the CoCo escapes.
	shardCount int
}

// Build constructs the net end-to-end from a synthetic corpus and serves
// it as a one-shard frozen snapshot: BuildSharded with one shard.
func Build(opts Options) (*CoCo, error) { return BuildSharded(opts, 1) }

// BuildSharded constructs the net like Build and serves it partitioned
// into shards: point lookups route to the owning shard, traversals and
// search scatter-gather across the set, and each shard can be re-frozen
// and reloaded independently. Every subsequent refreeze
// (InferImplicitRelations) maintains the same partition. shards <= 1 serves one shard,
// through the same ShardSet read path as many. The net is frozen into the
// requested partition once and published once. The build keeps no corpus
// (pipeline.BuildNet; see Internal).
func BuildSharded(opts Options, shards int) (*CoCo, error) {
	popts := pipeline.DefaultOptions()
	popts.World.Seed = opts.Seed
	popts.World.ItemsPerLeaf = opts.ItemsPerCategory
	popts.World.GeneratedFrames = opts.Scenarios
	popts.Queries = opts.CorpusSentences
	popts.Reviews = opts.CorpusSentences
	popts.Guides = opts.CorpusSentences
	// Serving never reads the corpus once the net is built; only
	// Artifacts.TrainModels does, and the facade trains no model.
	arts, err := pipeline.BuildNet(popts)
	if err != nil {
		return nil, err
	}
	c := &CoCo{Core: serving.New(), arts: arts, shardCount: max(shards, 1)}
	return c, c.refreeze("build")
}

// SaveShards partitions the live net into count shards and commits them as
// a new generation in the snapshot store at dir — per-shard files plus a
// checksummed manifest in a gen-%06d directory, named by the store's
// catalog — that LoadShardedFrozen and ReloadShards restore. Shards are
// frozen and written in parallel into a temp generation directory; the
// atomic catalog update is the single commit point, so a crashed save
// leaves only debris the next open sweeps away. It errors on a
// snapshot-loaded CoCo (no live net to partition).
func (c *CoCo) SaveShards(dir string, count int) (*snapstore.ShardManifest, error) {
	man, _, err := c.SaveShardsRetain(dir, count, 0)
	return man, err
}

// SaveShardsRetain is SaveShards with an explicit retention count — how
// many committed generations the store keeps as the rollback window
// (<= 0 means snapstore.DefaultRetain). A generation a live facade serves
// is kept past the window: every facade loaded from a store holds the
// generation it serves until it publishes another. It also returns the
// committed generation.
func (c *CoCo) SaveShardsRetain(dir string, count, retain int) (*snapstore.ShardManifest, snapstore.Gen, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.Internal().SaveShardsRetain(dir, count, retain)
}

// LoadShardedFrozen builds a CoCo from the newest committed generation of
// the snapshot store at dir (written by SaveShards) that loads and
// validates, skipping world and corpus generation, net construction and
// freezing; newer generations that do not load are marked bad, and only a
// store where none loads is an error (serving.Load). Anything other than a
// store root is an error. Shards load and verify in parallel; the CoCo
// serves every query path, while the offline paths that need the live net
// or the world (InferImplicitRelations, SampleSessions, Glosses) report
// that they are unavailable.
func LoadShardedFrozen(dir string) (*CoCo, error) {
	sc, err := serving.Load(dir)
	if err != nil {
		return nil, err
	}
	return &CoCo{Core: sc}, nil
}

// refreeze publishes the live net's current state to the serving engines,
// after the build or an offline mutation, partitioned into the configured
// shard count (each shard frozen in parallel). source names the cause in
// ServingInfo. Callers hold c.mu or own a CoCo that has not escaped yet.
func (c *CoCo) refreeze(source string) error {
	c.arts.Shards = c.arts.Net.FreezeShards(c.shardCount)
	return c.Publish(c.arts.Shards, c.arts.Serving, source)
}

// SampleSessions exposes simulated shopping sessions (viewed item IDs and
// the latent scenario), useful for recommendation demos.
func (c *CoCo) SampleSessions(n int) [][]int {
	if c.arts == nil {
		return nil
	}
	log := c.arts.World.ClickLog(n)
	out := make([][]int, 0, n)
	for _, s := range log {
		out = append(out, append([]int(nil), s.Viewed...))
	}
	return out
}

// Glosses exposes the knowledge-base gloss of a primitive concept.
func (c *CoCo) Glosses(name string) []string {
	if c.arts == nil {
		return nil
	}
	var out []string
	for _, pid := range c.arts.World.BySurface[strings.ToLower(name)] {
		out = append(out, c.arts.World.Glosses[pid])
	}
	return out
}

// ImpliedRelation is a commonsense relation mined from item statistics
// (the paper's Section 10 future work): the concept's items concentrate on a
// primitive far above base rate, e.g. a "keep warm for kids" concept implies
// Function:warm even when not stated.
type ImpliedRelation struct {
	Concept   string
	Primitive string // "Domain:name"
	Lift      float64
	Coverage  float64
}

// InferImplicitRelations mines implied concept-primitive relations from the
// partition last frozen from the live net, materializes them into the live
// net as weighted "implied" interpretation edges, and re-freezes so the
// serving engines see the new knowledge. It reads the build only: a
// generation reloaded from a store may hold another net, whose node IDs
// mean nothing in this one.
func (c *CoCo) InferImplicitRelations() ([]ImpliedRelation, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arts == nil {
		return nil, errors.New("alicoco: infer: snapshot-loaded net has no live store to materialize into")
	}
	arts := c.arts
	built, err := core.NewShardSet(arts.Shards)
	if err != nil {
		return nil, err
	}
	m := inference.NewMiner(built, inference.DefaultConfig())
	rels := m.InferAll()
	if _, err := m.Materialize(arts.Net, rels); err != nil {
		return nil, err
	}
	if err := c.refreeze("refreeze"); err != nil {
		return nil, err
	}
	out := make([]ImpliedRelation, 0, len(rels))
	for _, r := range rels {
		cn, _ := arts.Net.Node(r.Concept)
		pn, _ := arts.Net.Node(r.Primitive)
		out = append(out, ImpliedRelation{
			Concept:   cn.Name,
			Primitive: pn.Domain + ":" + pn.Name,
			Lift:      r.Lift,
			Coverage:  r.Coverage,
		})
	}
	return out, nil
}

// Internal exposes the build to this module's tests and to bench/, which
// read the live net and the shards directly. A loaded CoCo has no build:
// its artifacts are the served partition and serving metadata alone.
// External users should treat CoCo as the API. A built CoCo's artifacts
// carry no corpus, so they cannot TrainModels; the experiments build with
// pipeline.Build.
func (c *CoCo) Internal() *pipeline.Artifacts {
	if c.arts != nil {
		return c.arts
	}
	return &pipeline.Artifacts{Shards: c.ShardSet().Shards(), Serving: c.Meta()}
}
