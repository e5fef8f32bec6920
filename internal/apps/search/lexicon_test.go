package search

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"alicoco/internal/core"
	"alicoco/internal/raceflag"
	"alicoco/internal/text"
)

// referenceSegmenter is the lexicon an engine held before it kept its own:
// a text.Segmenter over the whitespace fields of every surface the engine
// indexes. cpv restricts it to the CPV engine's primitives.
func referenceSegmenter(net *core.ShardSet, cpv bool) *text.Segmenter {
	s := text.NewSegmenter()
	for _, kind := range []core.NodeKind{core.KindPrimitive, core.KindEConcept} {
		if cpv && kind == core.KindEConcept {
			continue
		}
		for _, id := range net.NodesOfKind(kind) {
			nd, _ := net.Node(id)
			if !cpv || cpvDomain(nd.Domain) {
				s.AddPhrase(strings.Fields(nd.Name))
			}
		}
	}
	return s
}

// cpvDomain mirrors NewCPVEngine's domain filter.
func cpvDomain(d string) bool {
	switch d {
	case "Category", "Brand", "Color", "Material", "Design", "Function", "Pattern",
		"Shape", "Smell", "Taste", "Style", "Quantity":
		return true
	}
	return false
}

// checkSegmentsLikeSegmenter segments random queries, drawn from the
// surfaces' own tokens plus words no surface holds, with the engine's
// lexicon and with the reference segmenter, through both token forms, and
// requires the same segments with the same matches.
func checkSegmentsLikeSegmenter(t *testing.T, ctx string, e *Engine, ref *text.Segmenter, rng *rand.Rand) {
	t.Helper()
	vocab := []string{"zzz", "for", "the", "and"}
	for _, kind := range []core.NodeKind{core.KindPrimitive, core.KindEConcept} {
		for _, id := range e.net.NodesOfKind(kind) {
			nd, _ := e.net.Node(id)
			vocab = append(vocab, strings.Fields(nd.Name)...)
		}
	}
	var sc text.MatchScratch
	var got, gotBytes []text.Segment
	for q := 0; q < 400; q++ {
		tokens := make([]string, 1+rng.Intn(8))
		bytesTokens := make([][]byte, len(tokens))
		for i := range tokens {
			tokens[i] = vocab[rng.Intn(len(vocab))]
			bytesTokens[i] = []byte(tokens[i])
		}
		want := ref.MaxMatch(tokens)
		got = text.SegmentFunc(&sc, got[:0], tokens, e.maxLen, e.hasPhrase)
		gotBytes = text.SegmentFunc(&sc, gotBytes[:0], bytesTokens, e.maxLen, e.hasPhrase)
		for _, segs := range [][]text.Segment{got, gotBytes} {
			if !slices.Equal(segs, want) {
				t.Fatalf("%s: %q segments as %+v, the reference segmenter as %+v", ctx, tokens, segs, want)
			}
		}
	}
}

// TestEngineSegmentsLikeSegmenter: the engine's own lexicon segments every
// query exactly as the text.Segmenter it replaced — for the full and the
// CPV engine, over a frozen net and a 3-shard set.
func TestEngineSegmentsLikeSegmenter(t *testing.T) {
	a := buildArts(t)
	set, err := core.NewShardSet(a.Net.FreezeShards(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for name, net := range map[string]*core.ShardSet{"frozen": a.Net.Freeze(), "3 shards": set} {
		checkSegmentsLikeSegmenter(t, name, NewEngine(net, nil), referenceSegmenter(net, false), rng)
		checkSegmentsLikeSegmenter(t, name+" cpv", NewCPVEngine(net, nil), referenceSegmenter(net, true), rng)
	}
}

// TestEngineLexiconKeysAreNodeNames: a surface already in single-space form
// is keyed by the node's own name — on a frozen net a view of the shard's
// name arena, not a copy — and any other surface by its normalized copy,
// which matches the queries the normalized form matches.
func TestEngineLexiconKeysAreNodeNames(t *testing.T) {
	n := core.NewNet()
	for i, name := range []string{"outdoor barbecue", "  winter   coat ", "grill\tpan", "silk dress", "", "   ", "apron", " linen", "wool  scarf"} {
		kind := core.KindPrimitive
		if i%2 == 1 {
			kind = core.KindEConcept
		}
		n.AddNode(kind, name, "Category")
	}
	for form, net := range map[string]*core.ShardSet{"frozen": n.Freeze()} {
		e := NewEngine(net, nil)
		names := map[string]*byte{} // each node's name and its bytes
		for _, kind := range []core.NodeKind{core.KindPrimitive, core.KindEConcept} {
			for _, id := range net.NodesOfKind(kind) {
				nd, _ := net.Node(id)
				names[nd.Name] = unsafe.StringData(nd.Name)
				if key, _ := text.PhraseKey(nd.Name); !e.hasPhrase([]byte(key)) {
					t.Fatalf("%s: surface %q is not in the lexicon", form, nd.Name)
				}
			}
		}
		for key := range e.lexicon {
			if norm, _ := text.PhraseKey(key); norm != key {
				t.Fatalf("%s: lexicon key %q is not normalized", form, key)
			}
			if data, ok := names[key]; ok && key != "" && unsafe.StringData(key) != data {
				t.Fatalf("%s: lexicon key %q copies a name already in normal form", form, key)
			}
		}
		if len(e.lexicon) != 8 { // "" and "   " share a key
			t.Fatalf("%s: %d lexicon keys, want 8", form, len(e.lexicon))
		}
		for _, query := range [][]string{{"winter", "coat"}, {"grill", "pan"}, {"silk", "dress"}, {"outdoor", "barbecue"}, {"linen"}, {"wool", "scarf"}} {
			if !e.Covered(query) {
				t.Fatalf("%s: %q is not covered", form, query)
			}
		}
		if e.maxLen != 2 {
			t.Fatalf("%s: longest surface %d tokens, want 2", form, e.maxLen)
		}
	}
}

// TestNewEngineAllocsIndependentOfPhrases: building an engine allocates no
// string, slice or map entry per surface — the lexicon is sized once and
// keyed by the nodes' own names — so ten times the surfaces cost at most a
// few more allocations (the map's larger table directory). The lexicon of
// a text.Segmenter cost about three allocations per surface.
func TestNewEngineAllocsIndependentOfPhrases(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	engineAllocs := func(surfaces int) float64 {
		n := core.NewNet()
		for i := 0; i < surfaces; i++ {
			kind := core.KindPrimitive
			if i%3 == 0 {
				kind = core.KindEConcept
			}
			n.AddNode(kind, fmt.Sprintf("surface number %d", i), "Category")
		}
		f := n.Freeze()
		return testing.AllocsPerRun(5, func() { NewEngine(f, []string{"for", "the"}) })
	}
	small, large := engineAllocs(300), engineAllocs(3000)
	t.Logf("NewEngine: %.0f allocations for 300 surfaces, %.0f for 3000", small, large)
	if large > small+16 {
		t.Fatalf("NewEngine takes %.0f allocations for 3000 surfaces and %.0f for 300: it allocates per surface", large, small)
	}
}
