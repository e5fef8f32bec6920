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
	c := &Corpus{Titles: make([][]string, 0, len(w.Items))}
	for _, item := range w.Items {
		c.Titles = append(c.Titles, item.Title)
	}
	w.genCorpus(c, queries, reviews, guides, true)
	return c
}

// GenGuides returns the guides of GenCorpus(queries, reviews, guides) and
// leaves the world's random stream where GenCorpus leaves it: it makes
// every draw GenCorpus makes, but builds no title, query or review. A
// build that mines only the guides (Hearst patterns) calls it, so what it
// builds and every draw after it match a build that kept the corpus.
func (w *World) GenGuides(queries, reviews, guides int) [][]string {
	c := &Corpus{}
	w.genCorpus(c, queries, reviews, guides, false)
	return c.Guides
}

// genCorpus draws queries, reviews and guides into c, in that order. With
// keep false it builds no query or review but makes the same draws: both
// modes run the same generators, so their draws cannot drift apart.
func (w *World) genCorpus(c *Corpus, queries, reviews, guides int, keep bool) {
	if keep {
		c.Queries = make([][]string, 0, queries)
		c.Reviews = make([][]string, 0, reviews)
	}
	for i := 0; i < queries; i++ {
		if q := w.genQuery(keep); keep {
			c.Queries = append(c.Queries, q)
		}
	}
	for i := 0; i < reviews; i++ {
		if r := w.genReview(keep); keep {
			c.Reviews = append(c.Reviews, r)
		}
	}
	c.Guides = make([][]string, 0, guides)
	for i := 0; i < guides; i++ {
		c.Guides = append(c.Guides, w.genGuide())
	}
}

func (w *World) randomLeaf() int { return w.Leaves[w.rng.Intn(len(w.Leaves))] }

func (w *World) randomPrimOf(d Domain) int {
	pool := w.ByDomain[d]
	return pool[w.rng.Intn(len(pool))]
}

// genQuery emits a search query: category, attribute+category, brand, or a
// scenario phrase. With keep false it makes the same draws and returns nil.
func (w *World) genQuery(keep bool) []string {
	var first, second []string
	switch w.rng.Intn(10) {
	case 0, 1, 2: // bare category
		first = w.Primitives[w.randomLeaf()].Tokens
	case 3, 4: // attribute + category
		leafID := w.randomLeaf()
		fam := w.FamilyOfLeaf[leafID]
		doms := familyAttributes[fam]
		attr := w.randomPrimOf(doms[w.rng.Intn(len(doms))])
		first, second = w.Primitives[attr].Tokens, w.Primitives[leafID].Tokens
	case 5: // brand + category
		b := w.randomPrimOf(Brand)
		first, second = w.Primitives[b].Tokens, w.Primitives[w.randomLeaf()].Tokens
	default: // scenario phrase
		first = w.Frames[w.rng.Intn(len(w.Frames))].Tokens
	}
	if !keep {
		return nil
	}
	return append(append(make([]string, 0, len(first)+len(second)), first...), second...)
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
// corpus that text-augmented models mine. With keep false it makes the
// same draws and returns nil.
func (w *World) genReview(keep bool) []string {
	item := w.Items[w.rng.Intn(len(w.Items))]
	leaf := w.Primitives[item.Leaf]
	switch w.rng.Intn(3) {
	case 0:
		w.frameBuf = w.appendItemFrames(w.frameBuf[:0], item)
		if len(w.frameBuf) > 0 {
			f := w.Frames[w.frameBuf[w.rng.Intn(len(w.frameBuf))]]
			if !keep {
				return nil
			}
			out := []string{"this"}
			out = append(out, leaf.Tokens...)
			out = append(out, "is", "perfect", "for")
			out = append(out, f.Tokens...)
			return out
		}
		fallthrough
	case 1:
		opener := reviewOpeners[w.rng.Intn(len(reviewOpeners))]
		var attr *Primitive
		if len(item.Attrs) > 0 {
			attr = w.Primitives[item.Attrs[w.rng.Intn(len(item.Attrs))]]
		}
		if !keep {
			return nil
		}
		out := []string{opener}
		out = append(out, leaf.Tokens...)
		if attr != nil {
			out = append(out, "love", "the")
			out = append(out, attr.Tokens...)
		}
		return out
	default:
		if !keep {
			return nil
		}
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
	w.glosses = make(map[int]string, len(w.Primitives))
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
		b.Grow(128) // room for nearly every gloss
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
		w.glosses[p.ID] = strings.ToLower(b.String())
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
