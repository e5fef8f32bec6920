package world

import (
	"strings"
	"testing"
)

func tinyWorld(t *testing.T) *World {
	t.Helper()
	return New(TinyConfig())
}

func TestWorldDeterminism(t *testing.T) {
	w1 := New(TinyConfig())
	w2 := New(TinyConfig())
	if len(w1.Primitives) != len(w2.Primitives) {
		t.Fatalf("primitive counts differ: %d vs %d", len(w1.Primitives), len(w2.Primitives))
	}
	for i := range w1.Primitives {
		if w1.Primitives[i].Name() != w2.Primitives[i].Name() {
			t.Fatalf("primitive %d differs: %q vs %q", i, w1.Primitives[i].Name(), w2.Primitives[i].Name())
		}
	}
	if len(w1.Items) != len(w2.Items) || len(w1.Frames) != len(w2.Frames) {
		t.Fatal("items/frames differ between identical seeds")
	}
	for i := range w1.Items {
		if strings.Join(w1.Items[i].Title, " ") != strings.Join(w2.Items[i].Title, " ") {
			t.Fatalf("item %d title differs", i)
		}
	}
}

func TestAllTwentyDomainsPopulated(t *testing.T) {
	w := tinyWorld(t)
	for _, d := range Domains {
		if len(w.ByDomain[d]) == 0 {
			t.Fatalf("domain %s has no primitives", d)
		}
	}
	if len(Domains) != 20 {
		t.Fatalf("paper defines 20 domains, got %d", len(Domains))
	}
}

func TestCategoryHierarchy(t *testing.T) {
	w := tinyWorld(t)
	coat := w.PrimByName(Category, "coat")
	if coat < 0 {
		t.Fatal("coat missing")
	}
	p := w.Prim(coat)
	if len(p.ClassPath) != 3 || p.ClassPath[0] != "clothing" || p.ClassPath[1] != "outerwear" {
		t.Fatalf("coat class path: got %v", p.ClassPath)
	}
	if len(p.Hypernyms) != 1 {
		t.Fatalf("coat should have one direct hypernym, got %v", p.Hypernyms)
	}
	hyper := w.Prim(p.Hypernyms[0])
	if hyper.Name() != "outerwear" {
		t.Fatalf("coat hypernym: got %q", hyper.Name())
	}
}

func TestCompoundConceptsHaveHypernyms(t *testing.T) {
	w := tinyWorld(t)
	found := false
	for _, id := range w.ByDomain[Category] {
		p := w.Prim(id)
		if len(p.Tokens) == 2 && len(p.Hypernyms) == 1 {
			hyper := w.Prim(p.Hypernyms[0])
			if hyper.Name() != p.Tokens[1] {
				t.Fatalf("compound %q should have hypernym %q, got %q", p.Name(), p.Tokens[1], hyper.Name())
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no compound category concepts generated")
	}
}

func TestHypernymPairsConsistent(t *testing.T) {
	w := tinyWorld(t)
	if len(w.HypernymPairs) == 0 {
		t.Fatal("no ground-truth hypernym pairs")
	}
	for _, pair := range w.HypernymPairs {
		hypo, hyper := w.Prim(pair[0]), w.Prim(pair[1])
		if hypo.Domain != Category || hyper.Domain != Category {
			t.Fatalf("hypernym pair outside Category: %v -> %v", hypo.Name(), hyper.Name())
		}
	}
}

func TestAmbiguousSurfaces(t *testing.T) {
	w := tinyWorld(t)
	doms := w.AmbiguousDomains("village")
	if len(doms) != 2 {
		t.Fatalf("village should be ambiguous between 2 domains, got %v", doms)
	}
	has := func(d Domain) bool {
		for _, x := range doms {
			if x == d {
				return true
			}
		}
		return false
	}
	if !has(Location) || !has(Style) {
		t.Fatalf("village should be Location+Style, got %v", doms)
	}
	if len(w.AmbiguousDomains("lavender")) != 2 {
		t.Fatal("lavender should be Color+Smell")
	}
}

func TestPlausibleOracle(t *testing.T) {
	w := tinyWorld(t)
	id := func(d Domain, s string) int {
		v := w.PrimByName(d, s)
		if v < 0 {
			t.Fatalf("missing primitive %s:%s", d, s)
		}
		return v
	}
	cases := []struct {
		prims []int
		want  bool
	}{
		{[]int{id(Modifier, "sexy"), id(Audience, "baby")}, false},
		{[]int{id(Modifier, "sexy"), id(Audience, "women")}, true},
		{[]int{id(Style, "british"), id(Style, "korean")}, false},
		{[]int{id(Style, "british"), id(Style, "casual")}, true},
		{[]int{id(Function, "warm"), id(Event, "swimming")}, false},
		{[]int{id(Function, "warm"), id(Event, "skiing")}, true},
		{[]int{id(Event, "bathing"), id(Location, "classroom")}, false},
		{[]int{id(Event, "barbecue"), id(Location, "outdoor")}, true},
		{[]int{id(Time, "summer"), id(Category, "coat")}, false},
		{[]int{id(Time, "winter"), id(Category, "coat")}, true},
	}
	for i, tc := range cases {
		got, reason := w.Plausible(tc.prims)
		if got != tc.want {
			t.Fatalf("case %d: Plausible=%v (%s), want %v", i, got, reason, tc.want)
		}
	}
}

func TestFramesWellFormed(t *testing.T) {
	w := tinyWorld(t)
	if len(w.Frames) < len(handFrames) {
		t.Fatalf("expected at least %d frames, got %d", len(handFrames), len(w.Frames))
	}
	for _, f := range w.Frames {
		if len(f.Required) == 0 {
			t.Fatalf("frame %q has no requirements", f.Name())
		}
		if len(f.Spans) != len(f.Primitives) {
			t.Fatalf("frame %q spans/primitives mismatch", f.Name())
		}
		for i, sp := range f.Spans {
			p := w.Prim(f.Primitives[i])
			got := strings.Join(f.Tokens[sp.Start:sp.End], " ")
			if got != p.Name() {
				t.Fatalf("frame %q span %d covers %q, primitive is %q", f.Name(), i, got, p.Name())
			}
			if sp.Label != string(p.Domain) {
				t.Fatalf("frame %q span label %q != domain %q", f.Name(), sp.Label, p.Domain)
			}
		}
	}
}

func TestSemanticDriftPlanted(t *testing.T) {
	w := tinyWorld(t)
	// The mid-autumn frame must require mooncake, whose name shares no
	// token with the frame phrase — the Section 6 motivating case.
	var maf *Frame
	for _, f := range w.Frames {
		if f.Name() == "mid-autumn festival gifts" {
			maf = f
			break
		}
	}
	if maf == nil {
		t.Fatal("mid-autumn festival frame missing")
	}
	mooncake := w.LeafByName["mooncake"]
	found := false
	for _, r := range maf.Required {
		if r == mooncake {
			found = true
		}
	}
	if !found {
		t.Fatal("mid-autumn frame should require mooncake")
	}
	for _, tok := range maf.Tokens {
		if tok == "mooncake" {
			t.Fatal("drift case should not contain the required token")
		}
	}
	// And the gloss must mention it (the knowledge bridge).
	tm := w.PrimByName(Time, "mid-autumn festival")
	if !strings.Contains(w.Glosses()[tm], "mooncake") {
		t.Fatalf("mid-autumn gloss should mention mooncake: %q", w.Glosses()[tm])
	}
}

func TestItemsWellFormed(t *testing.T) {
	w := tinyWorld(t)
	if len(w.Items) != len(w.Leaves)*w.Cfg.ItemsPerLeaf {
		t.Fatalf("item count: got %d want %d", len(w.Items), len(w.Leaves)*w.Cfg.ItemsPerLeaf)
	}
	for _, item := range w.Items {
		if len(item.Title) == 0 {
			t.Fatalf("item %d has empty title", item.ID)
		}
		leafName := w.Prim(item.Leaf).Tokens
		tail := item.Title[len(item.Title)-len(leafName):]
		if strings.Join(tail, " ") != strings.Join(leafName, " ") {
			t.Fatalf("item title should end with category: %v vs %v", item.Title, leafName)
		}
		for _, a := range item.Attrs {
			d := w.Prim(a).Domain
			okd := false
			for _, fd := range familyAttributes[item.Family] {
				if fd == d {
					okd = true
				}
			}
			if !okd {
				t.Fatalf("item %d carries attr domain %s not allowed for family %s", item.ID, d, item.Family)
			}
		}
	}
}

func TestFrameItemAssociation(t *testing.T) {
	w := tinyWorld(t)
	for _, f := range w.Frames[:10] {
		items := w.FrameItems(f)
		for _, itemID := range items {
			item := w.Items[itemID]
			okLeaf := false
			for _, r := range f.Required {
				if r == item.Leaf {
					okLeaf = true
				}
			}
			if !okLeaf {
				t.Fatalf("frame %q associated with item of wrong category", f.Name())
			}
		}
		// Reverse index agrees.
		for _, itemID := range items {
			frames := w.ItemFrames(itemID)
			found := false
			for _, fid := range frames {
				if fid == f.ID {
					found = true
				}
			}
			if !found {
				t.Fatalf("ItemFrames missing frame %q for item %d", f.Name(), itemID)
			}
		}
	}
}

func TestAudienceConstraintFiltersItems(t *testing.T) {
	w := tinyWorld(t)
	var kidFrame *Frame
	for _, f := range w.Frames {
		if f.Audience >= 0 && w.Prim(f.Audience).Name() == "kids" {
			kidFrame = f
			break
		}
	}
	if kidFrame == nil {
		t.Skip("no kids frame in tiny world")
	}
	for _, itemID := range w.FrameItems(kidFrame) {
		aud := w.itemAudience(w.Items[itemID])
		if aud >= 0 && w.Prim(aud).Name() != "kids" {
			t.Fatalf("kids frame matched item with audience %q", w.Prim(aud).Name())
		}
	}
}

func TestCorpusGeneration(t *testing.T) {
	w := tinyWorld(t)
	c := w.GenCorpus(50, 50, 50)
	if len(c.Titles) != len(w.Items) {
		t.Fatalf("titles: got %d want %d", len(c.Titles), len(w.Items))
	}
	if len(c.Queries) != 50 || len(c.Reviews) != 50 || len(c.Guides) != 50 {
		t.Fatal("corpus sizes wrong")
	}
	if c.Sentences() != len(c.All()) {
		t.Fatal("Sentences and All disagree")
	}
	for _, s := range c.All() {
		if len(s) == 0 {
			t.Fatal("empty sentence in corpus")
		}
	}
}

func TestGuideContainsHearstPatterns(t *testing.T) {
	w := tinyWorld(t)
	c := w.GenCorpus(0, 0, 200)
	sawSuchAs, sawKindOf := false, false
	for _, g := range c.Guides {
		s := strings.Join(g, " ")
		if strings.Contains(s, "such as") {
			sawSuchAs = true
		}
		if strings.Contains(s, "is a kind of") {
			sawKindOf = true
		}
	}
	if !sawSuchAs || !sawKindOf {
		t.Fatal("guides should contain Hearst patterns")
	}
}

func TestGlossesCoverAllPrimitives(t *testing.T) {
	w := tinyWorld(t)
	for _, p := range w.Primitives {
		g, ok := w.Glosses()[p.ID]
		if !ok || g == "" {
			t.Fatalf("primitive %q has no gloss", p.Name())
		}
	}
	// Event glosses must name required categories.
	bb := w.PrimByName(Event, "barbecue")
	if !strings.Contains(w.Glosses()[bb], "grill") {
		t.Fatalf("barbecue gloss should mention grill: %q", w.Glosses()[bb])
	}
}

func TestConceptCandidatesBalancedAndLabeled(t *testing.T) {
	w := tinyWorld(t)
	cands := w.ConceptCandidates(200)
	good, bad := 0, 0
	reasons := make(map[string]int)
	for _, c := range cands {
		if len(c.Tokens) == 0 {
			t.Fatal("empty candidate")
		}
		if c.Good {
			good++
			if c.Reason != "" {
				t.Fatal("good candidate with a reason")
			}
		} else {
			bad++
			reasons[c.Reason]++
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("unbalanced: %d good %d bad", good, bad)
	}
	for _, r := range []string{"incoherent", "implausible", "nonsense", "typo"} {
		if reasons[r] == 0 {
			t.Fatalf("no %q negatives generated: %v", r, reasons)
		}
	}
}

func TestImplausibleCandidatesVioateOracle(t *testing.T) {
	w := tinyWorld(t)
	checked := 0
	for i := 0; i < 500 && checked < 20; i++ {
		c := w.implausibleCandidate()
		// Map tokens back to primitives where possible and verify the
		// oracle rejects the combination.
		var prims []int
		joined := strings.Join(c.Tokens, " ")
		for _, p := range w.Primitives {
			name := p.Name()
			if name == "" {
				continue
			}
			if strings.Contains(" "+joined+" ", " "+name+" ") {
				prims = append(prims, p.ID)
			}
		}
		okp, _ := w.Plausible(prims)
		if okp {
			t.Fatalf("implausible candidate %q passed the oracle", joined)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no implausible candidates checked")
	}
}

func TestClickLogSessions(t *testing.T) {
	w := tinyWorld(t)
	sessions := w.ClickLog(30)
	if len(sessions) != 30 {
		t.Fatalf("sessions: got %d", len(sessions))
	}
	for _, s := range sessions {
		if len(s.Viewed) == 0 || len(s.Clicked) == 0 {
			t.Fatal("session without views or clicks")
		}
		f := w.Frames[s.Frame]
		// Views are always drawn from the latent frame's items.
		assoc := make(map[int]bool)
		for _, id := range w.FrameItems(f) {
			assoc[id] = true
		}
		for _, v := range s.Viewed {
			if !assoc[v] {
				t.Fatalf("viewed item %d outside latent frame %q", v, f.Name())
			}
		}
	}
}

func TestMatchingPairs(t *testing.T) {
	w := tinyWorld(t)
	pairs := w.MatchingPairs(100, 100)
	pos, neg := 0, 0
	seen := make(map[[2]int]bool)
	for _, p := range pairs {
		key := [2]int{p.Frame, p.Item}
		if seen[key] {
			t.Fatal("duplicate pair")
		}
		seen[key] = true
		if p.Label {
			pos++
			if !w.isAssociated(w.Frames[p.Frame], p.Item) {
				t.Fatal("positive pair not actually associated")
			}
		} else {
			neg++
			if w.isAssociated(w.Frames[p.Frame], p.Item) {
				t.Fatal("negative pair actually associated")
			}
		}
	}
	if pos == 0 || neg != 100 {
		t.Fatalf("pos=%d neg=%d", pos, neg)
	}
}

func TestQuerySetMixture(t *testing.T) {
	w := tinyWorld(t)
	qs := w.QuerySet(400)
	scen := 0
	for _, q := range qs {
		if len(q.Tokens) == 0 {
			t.Fatal("empty query")
		}
		if q.Scenario {
			scen++
		}
	}
	frac := float64(scen) / float64(len(qs))
	if frac < 0.5 || frac > 0.8 {
		t.Fatalf("scenario fraction %v outside expected band", frac)
	}
}

func TestCorruptWordChanges(t *testing.T) {
	for mode := 0; mode < 3; mode++ {
		if corruptWord("sweater", mode) == "sweater" {
			t.Fatalf("mode %d did not corrupt", mode)
		}
	}
	if corruptWord("ab", 0) == "ab" {
		t.Fatal("short word fallback should still corrupt")
	}
}
