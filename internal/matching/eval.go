package matching

import (
	"math/rand"
	"sort"

	"alicoco/internal/emb"
	"alicoco/internal/mat"
	"alicoco/internal/metrics"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// BuildPairs materializes the matching dataset of Section 7.6 from the
// world's ground truth: positive pairs from frame-item association (the
// stand-in for strong rules + click logs), negatives by random mismatch.
func BuildPairs(w *world.World, nPos, nNeg int) []Pair {
	raw := w.MatchingPairs(nPos, nNeg)
	out := make([]Pair, 0, len(raw))
	for _, mp := range raw {
		f := w.Frames[mp.Frame]
		item := w.Items[mp.Item]
		out = append(out, Pair{
			Concept: append([]string(nil), f.Tokens...),
			Title:   append([]string(nil), item.Title...),
			Label:   mp.Label,
			FrameID: mp.Frame,
			ItemID:  mp.Item,
		})
	}
	return out
}

// SplitPairs shuffles deterministically and splits train/test.
func SplitPairs(pairs []Pair, trainFrac float64, seed int64) (train, test []Pair) {
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]Pair(nil), pairs...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	split := int(float64(len(shuffled)) * trainFrac)
	return shuffled[:split], shuffled[split:]
}

// Result bundles the Table 6 metrics.
type Result struct {
	Model string
	AUC   float64
	F1    float64
	P10   float64
}

// Evaluate computes AUC and F1 (threshold 0.5) over test pairs plus P@10
// per concept group (concepts with at least 10 candidates).
func Evaluate(m Matcher, test []Pair) Result {
	scores := make([]float64, len(test))
	labels := make([]bool, len(test))
	var conf metrics.Confusion
	groups := make(map[int][]int)
	for i, p := range test {
		scores[i] = m.Score(p.Concept, p.Title)
		labels[i] = p.Label
		conf.Add(scores[i] >= 0.5, p.Label)
		groups[p.FrameID] = append(groups[p.FrameID], i)
	}
	var rankings []metrics.Ranking
	frameIDs := make([]int, 0, len(groups))
	for fid := range groups {
		frameIDs = append(frameIDs, fid)
	}
	sort.Ints(frameIDs)
	for _, fid := range frameIDs {
		idx := groups[fid]
		if len(idx) < 10 {
			continue
		}
		hasPos := false
		for _, i := range idx {
			if labels[i] {
				hasPos = true
				break
			}
		}
		if !hasPos {
			continue
		}
		sortPairsByScore(idx, scores)
		rel := make([]bool, len(idx))
		for rank, i := range idx {
			rel[rank] = labels[i]
		}
		rankings = append(rankings, metrics.Ranking{Relevant: rel})
	}
	return Result{
		Model: m.Name(),
		AUC:   metrics.AUC(scores, labels),
		F1:    conf.F1(),
		P10:   metrics.MeanPrecisionAt(rankings, 10),
	}
}

// Group is one concept's candidate list for P@10 evaluation.
type Group struct {
	Concept []string
	Items   []Pair // mixed positives and negatives for this concept
}

// BuildGroupedEval constructs the Table 6 P@10 protocol of Section 7.6: for
// each sampled concept, a candidate set with its true items plus random
// negatives, labeled by ground truth.
func BuildGroupedEval(w *world.World, nFrames, candsPerFrame int, seed int64) []Group {
	rng := rand.New(rand.NewSource(seed))
	frameIdx := rng.Perm(len(w.Frames))
	var groups []Group
	for _, fi := range frameIdx {
		if len(groups) >= nFrames {
			break
		}
		f := w.Frames[fi]
		assoc := w.FrameItems(f)
		if len(assoc) < 5 {
			continue
		}
		g := Group{Concept: append([]string(nil), f.Tokens...)}
		rng.Shuffle(len(assoc), func(i, j int) { assoc[i], assoc[j] = assoc[j], assoc[i] })
		nPos := candsPerFrame / 2
		if nPos > len(assoc) {
			nPos = len(assoc)
		}
		inGroup := make(map[int]bool)
		for _, itemID := range assoc[:nPos] {
			g.Items = append(g.Items, Pair{Concept: g.Concept, Title: w.Items[itemID].Title, Label: true, FrameID: f.ID, ItemID: itemID})
			inGroup[itemID] = true
		}
		assocSet := make(map[int]bool)
		for _, id := range assoc {
			assocSet[id] = true
		}
		for len(g.Items) < candsPerFrame {
			item := w.Items[rng.Intn(len(w.Items))]
			if assocSet[item.ID] || inGroup[item.ID] {
				continue
			}
			inGroup[item.ID] = true
			g.Items = append(g.Items, Pair{Concept: g.Concept, Title: item.Title, Label: false, FrameID: f.ID, ItemID: item.ID})
		}
		// Shuffle so score ties cannot leak construction order.
		rng.Shuffle(len(g.Items), func(i, j int) { g.Items[i], g.Items[j] = g.Items[j], g.Items[i] })
		groups = append(groups, g)
	}
	return groups
}

// EvaluateGrouped computes mean P@10 over explicit candidate groups.
func EvaluateGrouped(m Matcher, groups []Group) float64 {
	var rankings []metrics.Ranking
	for _, g := range groups {
		scores := make([]float64, len(g.Items))
		labels := make([]bool, len(g.Items))
		for i, p := range g.Items {
			scores[i] = m.Score(p.Concept, p.Title)
			labels[i] = p.Label
		}
		rankings = append(rankings, metrics.RankScores(scores, labels))
	}
	return metrics.MeanPrecisionAt(rankings, 10)
}

// BM25Score adapts BM25 (raw scores) for AUC/F1 comparison: F1 needs a
// threshold, so scores are squashed by score/(score+1).
type BM25Squashed struct{ *BM25 }

// Score implements Matcher with scores in (0,1).
func (b BM25Squashed) Score(concept, title []string) float64 {
	s := b.BM25.Score(concept, title)
	return s / (s + 1)
}

// KnowledgeFn builds the gloss-sequence function for KADSM from the world's
// glossary: concept tokens are max-matched against primitive surfaces and
// each matched primitive contributes its gloss vector.
func KnowledgeFn(w *world.World, glossary *emb.Glossary) func([]string) []mat.Vec {
	seg := text.NewSegmenter()
	for _, p := range w.Primitives {
		seg.AddPhrase(p.Tokens)
	}
	return func(concept []string) []mat.Vec {
		var out []mat.Vec
		for _, s := range seg.MaxMatch(concept) {
			if !s.Match {
				continue
			}
			surface := joinRange(concept, s.Start, s.End)
			if ids := w.BySurface[surface]; len(ids) > 0 {
				out = append(out, glossary.Vec(ids[0]))
			}
		}
		return out
	}
}

func joinRange(tokens []string, start, end int) string {
	out := ""
	for i := start; i < end; i++ {
		if i > start {
			out += " "
		}
		out += tokens[i]
	}
	return out
}
