// Package pipeline is the build: it orchestrates the end-to-end
// semi-automatic construction of the concept net (Sections 3-6) —
// generate/ingest corpora, build the taxonomy layer, import and mine
// primitive concepts, generate and link e-commerce concepts, and associate
// items — producing a complete core.Net and the serving metadata derived
// from its world. SaveShardsRetain freezes the net and commits it as a
// generation of a snapshot store (internal/snapstore owns that format);
// serving only ever loads committed generations. The served net reads no
// trained model, so Build trains none; callers that run the paper's models
// (the experiments) train the embedding substrate with
// Artifacts.TrainModels.
package pipeline

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"alicoco/internal/core"
	"alicoco/internal/emb"
	"alicoco/internal/hypernym"
	"alicoco/internal/snapstore"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// Options sizes the build.
type Options struct {
	World   world.Config
	Queries int
	Reviews int
	Guides  int
	// W2V configures the word2vec training of TrainModels; Build trains
	// nothing.
	W2V emb.W2VConfig
}

// DefaultOptions returns a laptop-scale build.
func DefaultOptions() Options {
	w2v := emb.DefaultW2VConfig()
	w2v.Dim = 32
	w2v.Epochs = 6
	w2v.Workers = runtime.GOMAXPROCS(0)
	return Options{
		World:   world.DefaultConfig(),
		Queries: 2000,
		Reviews: 2000,
		Guides:  2000,
		W2V:     w2v,
	}
}

// TinyOptions returns a fast build for tests.
func TinyOptions() Options {
	w2v := emb.DefaultW2VConfig()
	w2v.Dim = 16
	w2v.Epochs = 2
	w2v.Workers = runtime.GOMAXPROCS(0)
	return Options{
		World:   world.TinyConfig(),
		Queries: 300,
		Reviews: 300,
		Guides:  300,
		W2V:     w2v,
	}
}

// Artifacts bundles everything the build produces.
type Artifacts struct {
	Opts  Options
	World *world.World
	// Corpus is the text Build generated: its guides feed Hearst-pattern
	// mining during the build, and all of it feeds the models TrainModels
	// fits. Nothing in serving reads it, so BuildNet, which the alicoco
	// facade calls, leaves it nil.
	Corpus *world.Corpus
	Net    *core.Net

	// Shards is the frozen partition of Net that the alicoco facade
	// published last; the build leaves it nil. SaveShardsRetain writes them
	// without refreezing while they still hold the live net's current
	// state.
	Shards []*core.FrozenNet

	// Node maps from world IDs to net node IDs, filled while Build
	// wires the net. Only the build and the experiments read them; a
	// snapshot does not carry them (the item table in Serving maps items
	// to nodes for serving).
	PrimNode  map[int]core.NodeID
	FrameNode map[int]core.NodeID
	ItemNode  map[int]core.NodeID
	DomainCls map[world.Domain]core.NodeID

	// Serving is the world-derived metadata serving needs (stopwords,
	// item table), which a generation stores beside its shards. Build
	// derives it from World.
	Serving *snapstore.ServingMeta
}

// Build runs the full construction of the live net and keeps the corpus
// it generated, which TrainModels needs. It freezes nothing: callers
// freeze the partition they serve themselves (Net.Freeze for one shard,
// Net.FreezeShards for several).
func Build(opts Options) (*Artifacts, error) { return build(opts, true) }

// BuildNet builds the same net as Build, but generates only the guides of
// the corpus, the one source the net is mined from, and leaves Corpus nil.
// It makes every random draw Build makes (world.GenGuides), so the net and
// everything later drawn from the world are Build's. A build that only
// serves its net (the alicoco facade) calls it.
func BuildNet(opts Options) (*Artifacts, error) { return build(opts, false) }

func build(opts Options, keepCorpus bool) (*Artifacts, error) {
	w := world.New(opts.World)
	a := &Artifacts{
		Opts:      opts,
		World:     w,
		PrimNode:  make(map[int]core.NodeID, len(w.Primitives)),
		FrameNode: make(map[int]core.NodeID, len(w.Frames)),
		ItemNode:  make(map[int]core.NodeID, len(w.Items)),
		DomainCls: make(map[world.Domain]core.NodeID, len(world.Domains)),
	}
	// Hearst-pattern mining reads the guides; TrainModels reads the whole
	// corpus.
	var guides [][]string
	if keepCorpus {
		a.Corpus = w.GenCorpus(opts.Queries, opts.Reviews, opts.Guides)
		guides = a.Corpus.Guides
	} else {
		guides = w.GenGuides(opts.Queries, opts.Reviews, opts.Guides)
	}

	a.Net = core.NewNet()
	a.Net.Grow(a.nodeBound())
	if err := a.buildTaxonomy(); err != nil {
		return nil, fmt.Errorf("pipeline: taxonomy: %w", err)
	}
	if err := a.buildPrimitives(guides); err != nil {
		return nil, fmt.Errorf("pipeline: primitives: %w", err)
	}
	if err := a.buildEConcepts(); err != nil {
		return nil, fmt.Errorf("pipeline: e-commerce concepts: %w", err)
	}
	if err := a.buildItems(); err != nil {
		return nil, fmt.Errorf("pipeline: items: %w", err)
	}
	a.Serving = a.buildServingMeta()
	return a, nil
}

// nodeBound is an upper bound on the nodes the build adds: the root, one
// class per domain, one per step of every category class path, and one
// node per primitive, frame and item.
func (a *Artifacts) nodeBound() int {
	w := a.World
	n := 1 + len(world.Domains) + len(w.Primitives) + len(w.Frames) + len(w.Items)
	for _, p := range w.Primitives {
		if p.Domain == world.Category {
			n += len(p.ClassPath)
		}
	}
	return n
}

// Models is the embedding and language substrate the paper's Sections 4-6
// models consume: word vectors, the document encoder and gloss knowledge
// base built on them, the n-gram LM, and the POS tagger.
type Models struct {
	W2V      *emb.Word2Vec
	D2V      *emb.Doc2Vec
	Glossary *emb.Glossary
	LM       *text.NGramLM
	POS      *text.POSTagger
}

// TrainModels fits the Models from the build's world and corpus under
// Opts.W2V. Each call trains afresh; with Opts.W2V.Workers <= 1 two calls
// return bit-identical models. Snapshot-loaded artifacts carry no world or
// corpus, and BuildNet (the alicoco facade's build) keeps no corpus, so
// TrainModels reports an error for both; use Build.
func (a *Artifacts) TrainModels() (*Models, error) {
	if a.World == nil || a.Corpus == nil {
		return nil, errors.New("pipeline: train models: artifacts carry no world or corpus (snapshot-loaded or built by the alicoco facade; use pipeline.Build)")
	}
	m := &Models{}
	m.W2V = emb.TrainWord2Vec(a.Corpus.All(), a.Opts.W2V)
	m.D2V = emb.NewDoc2Vec(m.W2V)
	m.Glossary = emb.BuildGlossary(a.World.Glosses(), m.D2V)
	m.LM = text.NewNGramLM()
	m.LM.Train(a.Corpus.All())
	m.POS = text.NewPOSTagger()
	learnPOSLexicon(m.POS, a.World)
	return m, nil
}

// learnPOSLexicon seeds the POS tagger from the world's vocabulary.
func learnPOSLexicon(tagger *text.POSTagger, w *world.World) {
	nounDomains := map[world.Domain]bool{
		world.Category: true, world.Brand: true, world.IP: true,
		world.Organization: true, world.Location: true, world.Time: true,
		world.Audience: true, world.Event: true, world.Quantity: true,
	}
	for _, p := range w.Primitives {
		pos := text.PosAdj
		if nounDomains[p.Domain] {
			pos = text.PosNoun
		}
		for _, tok := range p.Tokens {
			tagger.Learn(tok, pos)
		}
	}
}

// buildTaxonomy adds the 20 domain classes, the Category subtree classes,
// and the schema relations among classes (Section 3).
func (a *Artifacts) buildTaxonomy() error {
	root := a.Net.AddNode(core.KindClass, "root", "")
	for _, d := range world.Domains {
		cls := a.Net.AddNode(core.KindClass, strings.ToLower(string(d)), string(d))
		a.DomainCls[d] = cls
		if err := a.Net.AddEdge(cls, root, core.EdgeIsA, "", 1); err != nil {
			return err
		}
	}
	// Category subtree classes come from the primitives' class paths.
	for _, p := range a.World.Primitives {
		if p.Domain != world.Category || len(p.ClassPath) == 0 {
			continue
		}
		parent := a.DomainCls[world.Category]
		for depth := 0; depth < len(p.ClassPath); depth++ {
			name := p.ClassPath[depth]
			cls := a.Net.AddNode(core.KindClass, name, "Category")
			if cls != parent {
				if err := a.Net.AddEdge(cls, parent, core.EdgeIsA, "", 1); err != nil {
					return err
				}
			}
			parent = cls
		}
	}
	// Schema: family classes carry property domains; categories are
	// used_in events and suitable_when times. The tables are maps, so they
	// are walked in key order: the order edges are added is the order of
	// each domain class's in-adjacency, and with it the bytes of the
	// frozen shards.
	families := world.FamilyAttributes()
	for _, fam := range sortedKeys(families) {
		famCls := a.Net.FirstByNameKind(fam, core.KindClass)
		if famCls == core.InvalidNode {
			continue
		}
		for _, d := range families[fam] {
			if err := a.Net.AddEdge(famCls, a.DomainCls[d], core.EdgeSchema, "has_property", 1); err != nil {
				return err
			}
		}
	}
	addSchema := func(table map[string][]string, rel string, targetDomain world.Domain) error {
		for _, key := range sortedKeys(table) {
			for _, leaf := range table[key] {
				leafCls := a.Net.FirstByNameKind(leaf, core.KindClass)
				if leafCls == core.InvalidNode {
					continue
				}
				if err := a.Net.AddEdge(leafCls, a.DomainCls[targetDomain], core.EdgeSchema, rel, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addSchema(world.EventRequirements(), "used_in", world.Event); err != nil {
		return err
	}
	if err := addSchema(world.TimeRequirements(), "suitable_when", world.Time); err != nil {
		return err
	}
	return addSchema(world.FunctionRequirements(), "has_function", world.Function)
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// buildPrimitives imports every primitive concept, its instanceOf link, the
// planted isA edges (the "existing knowledge" import of Section 7.2), and
// the isA edges Hearst patterns mine from the guides corpus (Section
// 4.2.1).
func (a *Artifacts) buildPrimitives(guides [][]string) error {
	for _, p := range a.World.Primitives {
		node := a.Net.AddNode(core.KindPrimitive, p.Name(), string(p.Domain))
		a.PrimNode[p.ID] = node
		cls := a.DomainCls[p.Domain]
		if p.Domain == world.Category && len(p.ClassPath) > 0 {
			// instanceOf the finest class on its path that is a class node.
			finest := p.ClassPath[len(p.ClassPath)-1]
			if c := a.Net.FirstByNameKind(finest, core.KindClass); c != core.InvalidNode {
				cls = c
			}
		}
		if err := a.Net.AddEdge(node, cls, core.EdgeInstanceOf, "", 1); err != nil {
			return err
		}
	}
	for _, pair := range a.World.HypernymPairs {
		if err := a.Net.AddEdge(a.PrimNode[pair[0]], a.PrimNode[pair[1]], core.EdgeIsA, "", 1); err != nil {
			return err
		}
	}
	for _, pp := range hypernym.MinePatterns(guides) {
		hypo := a.Net.FirstByNameKind(pp.Hypo, core.KindPrimitive)
		hyper := a.Net.FirstByNameKind(pp.Hyper, core.KindPrimitive)
		if hypo == core.InvalidNode || hyper == core.InvalidNode || hypo == hyper {
			continue
		}
		if err := a.Net.AddEdge(hypo, hyper, core.EdgeIsA, "", 0.9); err != nil {
			return err
		}
	}
	return nil
}

// buildEConcepts adds every scenario frame as an e-commerce concept node,
// links it to its constituent primitives (the tagging links of Section 5.3),
// and adds isA edges between concepts whose primitive sets nest.
func (a *Artifacts) buildEConcepts() error {
	for _, f := range a.World.Frames {
		node := a.Net.AddNode(core.KindEConcept, f.Name(), "")
		a.FrameNode[f.ID] = node
		for _, pid := range f.Primitives {
			if err := a.Net.AddEdge(node, a.PrimNode[pid], core.EdgeInterpretedBy, "", 1); err != nil {
				return err
			}
		}
	}
	// isA between e-commerce concepts: A isA B when B's primitives are a
	// proper subset of A's (e.g. "winter skiing" isA "skiing"-anchored
	// concepts).
	primSets := make([]map[int]bool, len(a.World.Frames))
	for i, f := range a.World.Frames {
		primSets[i] = make(map[int]bool, len(f.Primitives))
		for _, pid := range f.Primitives {
			primSets[i][pid] = true
		}
	}
	for i, fa := range a.World.Frames {
		for j, fb := range a.World.Frames {
			if i == j || len(primSets[j]) >= len(primSets[i]) || len(primSets[j]) == 0 {
				continue
			}
			subset := true
			for pid := range primSets[j] {
				if !primSets[i][pid] {
					subset = false
					break
				}
			}
			if subset {
				if err := a.Net.AddEdge(a.FrameNode[fa.ID], a.FrameNode[fb.ID], core.EdgeIsA, "", 0.8); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// buildItems adds item nodes and both association layers (Section 6).
func (a *Artifacts) buildItems() error {
	for _, item := range a.World.Items {
		node := a.Net.AddNode(core.KindItem, strings.Join(item.Title, " "), item.Family)
		a.ItemNode[item.ID] = node
		for _, pid := range a.World.ItemPrimitives(item.ID) {
			if err := a.Net.AddEdge(node, a.PrimNode[pid], core.EdgeItemPrimitive, "", 1); err != nil {
				return err
			}
		}
	}
	for _, f := range a.World.Frames {
		fNode := a.FrameNode[f.ID]
		for _, itemID := range a.World.FrameItems(f) {
			if err := a.Net.AddEdge(a.ItemNode[itemID], fNode, core.EdgeItemEConcept, "", 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// buildServingMeta derives the serving metadata from the built world.
func (a *Artifacts) buildServingMeta() *snapstore.ServingMeta {
	m := &snapstore.ServingMeta{Stopwords: a.World.Stopwords(), Items: make([]snapstore.ItemMeta, 0, len(a.World.Items))}
	for _, it := range a.World.Items {
		// The item node's name is its title, and its leaf primitive's
		// name its category.
		m.Items = append(m.Items, snapstore.ItemMeta{WorldID: it.ID, Node: a.ItemNode[it.ID], Category: a.PrimNode[it.Leaf]})
	}
	m.IndexNodes(a.Net.NumNodes())
	return m
}

// SaveShardsRetain partitions the live net into count shards and commits
// them as a new generation of the snapshot store at dir (snapstore.Commit),
// which keeps retain generations (<= 0 means snapstore.DefaultRetain) and
// every older one a live process holds. When Shards already holds the live
// net's current state in count shards (core.Net.IsCurrentPartition), those
// are written as they are; otherwise the net is frozen afresh. It returns
// the manifest and the committed generation. Requires a live Net.
func (a *Artifacts) SaveShardsRetain(dir string, count, retain int) (*snapstore.ShardManifest, snapstore.Gen, error) {
	if a.Net == nil {
		return nil, snapstore.Gen{}, errors.New("pipeline: save shards: no live net (serving-only artifacts)")
	}
	if a.Serving == nil {
		return nil, snapstore.Gen{}, errors.New("pipeline: save shards: no serving metadata")
	}
	count = max(count, 1)
	shards := a.Shards
	if len(shards) != count || !a.Net.IsCurrentPartition(shards) {
		shards = a.Net.FreezeShards(count)
	}
	return snapstore.Commit(dir, shards, a.Serving, retain)
}
