package world

import (
	"sort"
	"strings"
)

// Corpus bundles the four text sources the paper mines (Section 4.1):
// search queries, product titles, user reviews and shopping guides.
type Corpus struct {
	Titles  [][]string
	Queries [][]string
	Reviews [][]string
	Guides  [][]string
}

// All returns every sentence of the corpus as one slice.
func (c *Corpus) All() [][]string {
	out := make([][]string, 0, len(c.Titles)+len(c.Queries)+len(c.Reviews)+len(c.Guides))
	out = append(out, c.Titles...)
	out = append(out, c.Queries...)
	out = append(out, c.Reviews...)
	out = append(out, c.Guides...)
	return out
}

// Sentences returns the total sentence count.
func (c *Corpus) Sentences() int {
	return len(c.Titles) + len(c.Queries) + len(c.Reviews) + len(c.Guides)
}

// GenCorpus emits a corpus with roughly the requested number of sentences
// per source. Titles always include one per item.
func (w *World) GenCorpus(queries, reviews, guides int) *Corpus {
	c := &Corpus{}
	for _, item := range w.Items {
		c.Titles = append(c.Titles, item.Title)
	}
	for i := 0; i < queries; i++ {
		c.Queries = append(c.Queries, w.genQuery())
	}
	for i := 0; i < reviews; i++ {
		c.Reviews = append(c.Reviews, w.genReview())
	}
	for i := 0; i < guides; i++ {
		c.Guides = append(c.Guides, w.genGuide())
	}
	return c
}

func (w *World) randomLeaf() int { return w.Leaves[w.rng.Intn(len(w.Leaves))] }

func (w *World) randomPrimOf(d Domain) int {
	pool := w.ByDomain[d]
	return pool[w.rng.Intn(len(pool))]
}

// genQuery emits a search query: category, attribute+category, brand, or a
// scenario phrase.
func (w *World) genQuery() []string {
	switch w.rng.Intn(10) {
	case 0, 1, 2: // bare category
		return append([]string(nil), w.Primitives[w.randomLeaf()].Tokens...)
	case 3, 4: // attribute + category
		leafID := w.randomLeaf()
		fam := w.FamilyOfLeaf[leafID]
		doms := familyAttributes[fam]
		attr := w.randomPrimOf(doms[w.rng.Intn(len(doms))])
		return append(append([]string(nil), w.Primitives[attr].Tokens...), w.Primitives[leafID].Tokens...)
	case 5: // brand + category
		b := w.randomPrimOf(Brand)
		return append(append([]string(nil), w.Primitives[b].Tokens...), w.Primitives[w.randomLeaf()].Tokens...)
	default: // scenario phrase
		f := w.Frames[w.rng.Intn(len(w.Frames))]
		return append([]string(nil), f.Tokens...)
	}
}

var reviewOpeners = []string{"great", "lovely", "decent", "awesome", "solid"}

// templateWords are the fixed function/template words the corpus generators
// emit outside concept spans.
var templateWords = []string{
	"this", "is", "perfect", "for", "love", "the", "bought",
	"such", "as", "a", "kind", "of", "every", "needs", "and",
	"you", "should", "prepare", "in", "at", "to",
}

// Stopwords returns every non-concept word the corpora and frame phrases can
// contain — the function words a query may carry and still count as
// covered by the net (Section 7.1).
func (w *World) Stopwords() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(word string) {
		if !seen[word] {
			seen[word] = true
			out = append(out, word)
		}
	}
	for _, t := range templateWords {
		add(t)
	}
	for _, t := range reviewOpeners {
		add(t)
	}
	// Frame filler tokens: any frame token not inside a primitive span.
	for _, f := range w.Frames {
		covered := make([]bool, len(f.Tokens))
		for _, sp := range f.Spans {
			for i := sp.Start; i < sp.End; i++ {
				covered[i] = true
			}
		}
		for i, tok := range f.Tokens {
			if !covered[i] {
				add(tok)
			}
		}
	}
	sort.Strings(out)
	return out
}

// genReview emits a review sentence tying items to scenarios — the context
// corpus that text-augmented models mine.
func (w *World) genReview() []string {
	item := w.Items[w.rng.Intn(len(w.Items))]
	leaf := w.Primitives[item.Leaf]
	switch w.rng.Intn(3) {
	case 0:
		frames := w.ItemFrames(item.ID)
		if len(frames) > 0 {
			f := w.Frames[frames[w.rng.Intn(len(frames))]]
			out := []string{"this"}
			out = append(out, leaf.Tokens...)
			out = append(out, "is", "perfect", "for")
			out = append(out, f.Tokens...)
			return out
		}
		fallthrough
	case 1:
		out := []string{reviewOpeners[w.rng.Intn(len(reviewOpeners))]}
		out = append(out, leaf.Tokens...)
		if len(item.Attrs) > 0 {
			out = append(out, "love", "the")
			out = append(out, w.Primitives[item.Attrs[w.rng.Intn(len(item.Attrs))]].Tokens...)
		}
		return out
	default:
		out := []string{"bought", "this"}
		for _, a := range item.Attrs {
			out = append(out, w.Primitives[a].Tokens...)
		}
		out = append(out, leaf.Tokens...)
		return out
	}
}

// genGuide emits shopping-guide prose: Hearst-pattern isA sentences and
// scenario-requirement sentences, the raw material for pattern-based
// hypernym discovery (Section 4.2.1) and for the knowledge glosses.
func (w *World) genGuide() []string {
	switch w.rng.Intn(4) {
	case 0: // "<family> such as <leaf> and <leaf>"
		fam := categoryFamilies[w.rng.Intn(len(categoryFamilies))]
		leaves := familyLeafNames(fam)
		if len(leaves) < 2 {
			return w.genGuide()
		}
		i, j := w.rng.Intn(len(leaves)), w.rng.Intn(len(leaves))
		for j == i {
			j = w.rng.Intn(len(leaves))
		}
		return []string{fam.Name, "such", "as", leaves[i], "and", leaves[j]}
	case 1: // "the <compound> is a kind of <leaf>"
		id := w.ByDomain[Category][w.rng.Intn(len(w.ByDomain[Category]))]
		p := w.Primitives[id]
		if len(p.Hypernyms) == 0 {
			return w.genGuide()
		}
		hyper := w.Primitives[p.Hypernyms[0]]
		out := []string{"the"}
		out = append(out, p.Tokens...)
		out = append(out, "is", "a", "kind", "of")
		out = append(out, hyper.Tokens...)
		return out
	case 2: // "every <event> needs <leaf> and <leaf>"
		f := w.Frames[w.rng.Intn(len(w.Frames))]
		if len(f.Required) < 2 {
			return w.genGuide()
		}
		i, j := w.rng.Intn(len(f.Required)), w.rng.Intn(len(f.Required))
		for j == i {
			j = w.rng.Intn(len(f.Required))
		}
		out := []string{"every"}
		out = append(out, f.Tokens...)
		out = append(out, "needs")
		out = append(out, w.Primitives[f.Required[i]].Tokens...)
		out = append(out, "and")
		out = append(out, w.Primitives[f.Required[j]].Tokens...)
		return out
	default: // "for <scenario> you should prepare <leaf>"
		f := w.Frames[w.rng.Intn(len(w.Frames))]
		out := []string{"for"}
		out = append(out, f.Tokens...)
		out = append(out, "you", "should", "prepare")
		out = append(out, w.Primitives[f.Required[w.rng.Intn(len(f.Required))]].Tokens...)
		return out
	}
}

func familyLeafNames(fam categoryFamily) []string {
	var out []string
	for _, mid := range sortedKeys(fam.Mid) {
		out = append(out, fam.Mid[mid]...)
	}
	out = append(out, fam.Leaves...)
	return out
}

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// buildGlosses writes one knowledge-base gloss per primitive, encoding the
// ground-truth relations in prose — the stand-in for Wikipedia articles
// (Section 5.2.2). Crucially, event/time glosses name their required
// categories: the "Mid-Autumn Festival mentions moon cakes" bridge.
func (w *World) buildGlosses() {
	// Reverse indexes: leaf -> events/times needing it.
	leafEvents := make(map[string][]string)
	for ev, leaves := range eventRequirements {
		for _, l := range leaves {
			leafEvents[l] = append(leafEvents[l], ev)
		}
	}
	leafTimes := make(map[string][]string)
	for tm, leaves := range timeRequirements {
		for _, l := range leaves {
			leafTimes[l] = append(leafTimes[l], tm)
		}
	}
	for _, p := range w.Primitives {
		var b strings.Builder
		b.WriteString(p.Name())
		switch p.Domain {
		case Category:
			if len(p.Hypernyms) > 0 {
				b.WriteString(" is a kind of " + w.Primitives[p.Hypernyms[0]].Name())
			} else {
				b.WriteString(" is a category of products")
			}
			base := p.Tokens[len(p.Tokens)-1]
			if evs := leafEvents[base]; len(evs) > 0 {
				sort.Strings(evs)
				b.WriteString(" often needed for " + strings.Join(evs, " and "))
			}
			if tms := leafTimes[base]; len(tms) > 0 {
				sort.Strings(tms)
				b.WriteString(" popular in " + strings.Join(tms, " and "))
			}
		case Event:
			b.WriteString(" is an occasion where people need")
			for _, l := range eventRequirements[p.Name()] {
				b.WriteString(" " + l)
			}
		case Time:
			b.WriteString(" is a time when people prepare")
			for _, l := range timeRequirements[p.Name()] {
				b.WriteString(" " + l)
			}
		case Function:
			b.WriteString(" is a function provided by")
			for _, l := range functionRequirements[p.Name()] {
				b.WriteString(" " + l)
			}
		case Audience:
			b.WriteString(" are shoppers")
			switch p.Name() {
			case "kids", "baby", "toddlers":
				b.WriteString(" who are young children needing gentle safe products")
			case "elders", "grandpa", "grandma":
				b.WriteString(" who are older adults valuing comfort")
			case "students", "teens":
				b.WriteString(" who are young people at school")
			default:
				b.WriteString(" who are adults")
			}
		case Modifier:
			switch p.Name() {
			case "sexy":
				b.WriteString(" describes styles intended for adults never for children")
			case "luxury", "premium", "deluxe":
				b.WriteString(" describes high end expensive products")
			default:
				b.WriteString(" is a general product modifier")
			}
		case Style:
			if isRegionalStyle(p.Name()) {
				b.WriteString(" is a regional style tied to one tradition")
			} else {
				b.WriteString(" is a fashion style")
			}
		case Brand:
			b.WriteString(" is a brand selling consumer products")
		case IP:
			b.WriteString(" is a fictional franchise with collectible merchandise")
		case Organization:
			b.WriteString(" is an organization")
		case Location:
			b.WriteString(" is a place where activities happen")
		default:
			b.WriteString(" is a " + strings.ToLower(string(p.Domain)) + " used to describe items")
		}
		w.Glosses[p.ID] = strings.ToLower(b.String())
	}
}

func isRegionalStyle(s string) bool {
	for _, r := range regionalStyles {
		if r == s {
			return true
		}
	}
	return false
}
