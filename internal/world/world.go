package world

import (
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Primitive is a ground-truth primitive concept (Section 4): a surface form
// in one of the 20 domains, possibly multi-token, possibly sharing its
// surface with a primitive of another domain (ambiguity).
type Primitive struct {
	ID        int
	Tokens    []string
	Domain    Domain
	ClassPath []string // fine-grained class path within the domain (Category only)
	Hypernyms []int    // direct ground-truth hypernym primitive IDs
}

// Name returns the space-joined surface form.
func (p *Primitive) Name() string { return strings.Join(p.Tokens, " ") }

// Item is a ground-truth item: a sellable unit with a base category and
// property values (the CPV data of Section 1).
type Item struct {
	ID     int
	Leaf   int // primitive ID of the base category
	Family string
	Brand  int   // primitive ID, -1 if unbranded
	Attrs  []int // primitive IDs of property values
	Title  []string
}

// Config controls the size of the generated world.
type Config struct {
	Seed              int64
	Brands, IPs, Orgs int
	CompoundsPerLeaf  int // compound category concepts per base category
	ItemsPerLeaf      int
	GeneratedFrames   int // programmatically generated scenario frames
}

// DefaultConfig is a laptop-scale world: ~1k primitives, ~1.2k items.
func DefaultConfig() Config {
	return Config{
		Seed:             42,
		Brands:           60,
		IPs:              30,
		Orgs:             20,
		CompoundsPerLeaf: 4,
		ItemsPerLeaf:     12,
		GeneratedFrames:  120,
	}
}

// TinyConfig is for fast unit tests.
func TinyConfig() Config {
	return Config{
		Seed:             7,
		Brands:           12,
		IPs:              6,
		Orgs:             4,
		CompoundsPerLeaf: 1,
		ItemsPerLeaf:     3,
		GeneratedFrames:  20,
	}
}

// World is the planted ground truth everything is evaluated against.
type World struct {
	Cfg Config
	rng *rand.Rand

	Primitives []*Primitive
	BySurface  map[string][]int // surface -> primitive IDs (>1 means ambiguous)
	ByDomain   map[Domain][]int

	Leaves       []int // primitive IDs of base categories
	LeafByName   map[string]int
	FamilyOfLeaf map[int]string
	FamilyPrims  map[string]int // family name -> primitive ID

	Frames      []*Frame
	Items       []*Item
	ItemsByLeaf map[int][]int

	// leafFrames lists, per primitive ID, the frames that require it, in
	// frame order; only base categories have any. frameBuf is genReview's
	// scratch, used like rng by one generator at a time.
	leafFrames [][]int
	frameBuf   []int

	// glosses maps a primitive ID to its generated gloss; Glosses builds
	// it on first use.
	glosses     map[int]string
	glossesOnce sync.Once

	// HypernymPairs is the ground-truth isA set within Category:
	// (hyponym, hypernym) primitive ID pairs, both directions of the tree.
	HypernymPairs [][2]int
}

// New builds the world deterministically from cfg.
func New(cfg Config) *World {
	w := &World{
		Cfg:          cfg,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		BySurface:    make(map[string][]int),
		ByDomain:     make(map[Domain][]int),
		LeafByName:   make(map[string]int),
		FamilyOfLeaf: make(map[int]string),
		FamilyPrims:  make(map[string]int),
	}
	w.buildCategory()
	w.buildFlatDomains()
	w.buildNamedDomains()
	w.ensureAmbiguity()
	w.buildFrames()
	w.indexFrames()
	w.buildItems()
	return w
}

// Glosses returns the generated gloss of every primitive, keyed by
// primitive ID. It builds them on first use (buildGlosses draws nothing
// from the random stream, so when does not matter) and returns the same
// read-only map after that; it is safe for concurrent use.
func (w *World) Glosses() map[int]string {
	w.glossesOnce.Do(w.buildGlosses)
	return w.glosses
}

// addPrimitive registers a primitive and returns its ID.
func (w *World) addPrimitive(tokens []string, d Domain, classPath []string) int {
	id := len(w.Primitives)
	p := &Primitive{ID: id, Tokens: tokens, Domain: d, ClassPath: classPath}
	w.Primitives = append(w.Primitives, p)
	w.BySurface[p.Name()] = append(w.BySurface[p.Name()], id)
	w.ByDomain[d] = append(w.ByDomain[d], id)
	return id
}

// Prim returns the primitive with the given ID.
func (w *World) Prim(id int) *Primitive { return w.Primitives[id] }

// PrimByName returns the first primitive with the given surface form in the
// given domain, or -1.
func (w *World) PrimByName(d Domain, name string) int {
	for _, id := range w.BySurface[name] {
		if w.Primitives[id].Domain == d {
			return id
		}
	}
	return -1
}

func (w *World) buildCategory() {
	for _, fam := range categoryFamilies {
		famID := w.addPrimitive([]string{fam.Name}, Category, []string{fam.Name})
		w.FamilyPrims[fam.Name] = famID
		addLeaf := func(leaf string, path []string, parent int) {
			leafID := w.addPrimitive([]string{leaf}, Category, path)
			w.Primitives[leafID].Hypernyms = []int{parent}
			w.Leaves = append(w.Leaves, leafID)
			w.LeafByName[leaf] = leafID
			w.FamilyOfLeaf[leafID] = fam.Name
			w.HypernymPairs = append(w.HypernymPairs, [2]int{leafID, parent})
			if parent != famID {
				w.HypernymPairs = append(w.HypernymPairs, [2]int{leafID, famID})
			}
		}
		mids := make([]string, 0, len(fam.Mid))
		for mid := range fam.Mid {
			mids = append(mids, mid)
		}
		sort.Strings(mids)
		for _, mid := range mids {
			midID := w.addPrimitive([]string{mid}, Category, []string{fam.Name, mid})
			w.Primitives[midID].Hypernyms = []int{famID}
			w.HypernymPairs = append(w.HypernymPairs, [2]int{midID, famID})
			for _, leaf := range fam.Mid[mid] {
				addLeaf(leaf, []string{fam.Name, mid, leaf}, midID)
			}
		}
		for _, leaf := range fam.Leaves {
			addLeaf(leaf, []string{fam.Name, leaf}, famID)
		}
	}
	// Compound category concepts: "<modifier> <leaf>" isA <leaf>.
	mods := append(append([]string{}, materialWords[:8]...), styleWords[:6]...)
	for _, leafID := range append([]int(nil), w.Leaves...) {
		leaf := w.Primitives[leafID]
		picked := pickDistinct(w.rng, len(mods), w.Cfg.CompoundsPerLeaf)
		for _, mi := range picked {
			tokens := []string{mods[mi], leaf.Tokens[0]}
			id := w.addPrimitive(tokens, Category, append(append([]string{}, leaf.ClassPath...), tokens[0]+" "+tokens[1]))
			w.Primitives[id].Hypernyms = []int{leafID}
			w.HypernymPairs = append(w.HypernymPairs, [2]int{id, leafID})
			w.FamilyOfLeaf[id] = w.FamilyOfLeaf[leafID]
		}
	}
}

// flatDomainWords maps each flat domain to its lexicon.
func flatDomainWords() map[Domain][]string {
	return map[Domain][]string{
		Color:    colorWords,
		Design:   designWords,
		Function: functionWords,
		Material: materialWords,
		Pattern:  patternWords,
		Shape:    shapeWords,
		Smell:    smellWords,
		Taste:    tasteWords,
		Style:    styleWords,
		Time:     timeWords,
		Location: locationWords,
		Audience: audienceWords,
		Event:    eventWords,
		Nature:   natureWords,
		Quantity: quantityWords,
		Modifier: modifierWords,
	}
}

func (w *World) buildFlatDomains() {
	flat := flatDomainWords()
	order := make([]Domain, 0, len(flat))
	for d := range flat {
		order = append(order, d)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, d := range order {
		for _, word := range flat[d] {
			w.addPrimitive(strings.Fields(word), d, nil)
		}
	}
}

func (w *World) buildNamedDomains() {
	for _, b := range makeBrandNames(w.rng, w.Cfg.Brands) {
		w.addPrimitive(strings.Fields(b), Brand, nil)
	}
	for _, ip := range makeIPNames(w.rng, w.Cfg.IPs) {
		w.addPrimitive(strings.Fields(ip), IP, nil)
	}
	for _, o := range makeOrgNames(w.rng, w.Cfg.Orgs) {
		w.addPrimitive(strings.Fields(o), Organization, nil)
	}
}

// ensureAmbiguity guarantees every surface in ambiguousSurfaces exists in
// both of its domains, creating the second reading if missing.
func (w *World) ensureAmbiguity() {
	surfaces := make([]string, 0, len(ambiguousSurfaces))
	for s := range ambiguousSurfaces {
		surfaces = append(surfaces, s)
	}
	sort.Strings(surfaces)
	for _, surface := range surfaces {
		for _, d := range ambiguousSurfaces[surface] {
			if w.PrimByName(d, surface) < 0 {
				w.addPrimitive(strings.Fields(surface), d, nil)
			}
		}
	}
}

// AmbiguousDomains returns all domains a surface form can take.
func (w *World) AmbiguousDomains(surface string) []Domain {
	ids := w.BySurface[surface]
	out := make([]Domain, 0, len(ids))
	seen := make(map[Domain]bool)
	for _, id := range ids {
		d := w.Primitives[id].Domain
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// pickDistinct returns k distinct indices in [0,n) (fewer if n < k).
func pickDistinct(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	perm := rng.Perm(n)
	return perm[:k]
}
