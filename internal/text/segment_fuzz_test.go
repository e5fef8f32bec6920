package text

import (
	"slices"
	"strings"
	"testing"
)

// fuzzAlphabet is the token alphabet FuzzSegment draws lexicons and queries
// from: small, so random phrases overlap, and with "ab" beside "a b" so a
// token that reads like two joined ones is exercised.
var fuzzAlphabet = []string{"a", "b", "c", "ab"}

// fuzzLexicon decodes phrases from bytes: each byte is a token of the
// current phrase (b%5 < 4) or ends it (b%5 == 4). Empty phrases are
// dropped.
func fuzzLexicon(data []byte) (phrases [][]string) {
	var cur []string
	for _, b := range data {
		if b%5 < 4 {
			cur = append(cur, fuzzAlphabet[b%5])
			continue
		}
		if len(cur) > 0 {
			phrases = append(phrases, cur)
		}
		cur = nil
	}
	if len(cur) > 0 {
		phrases = append(phrases, cur)
	}
	return phrases
}

// bruteForceOptimum returns the best (matched tokens, segments) over every
// way of cutting tokens into segments, where a segment is a lexicon phrase
// (matched) or a single token (unmatched): most matched tokens first, then
// fewest segments.
func bruteForceOptimum(tokens []string, has func(string) bool) (matched, segs int) {
	n := len(tokens)
	matched, segs = -1, 0
	for cuts := 0; cuts < 1<<max(n-1, 0); cuts++ { // bit i: cut after token i
		m, s, start, ok := 0, 0, 0, true
		for end := 1; end <= n && ok; end++ {
			if end < n && cuts&(1<<(end-1)) == 0 {
				continue
			}
			switch {
			case has(strings.Join(tokens[start:end], " ")):
				m += end - start
			case end-start > 1:
				ok = false // a multi-token segment must be a phrase
			}
			s++
			start = end
		}
		if ok && (m > matched || m == matched && s < segs) {
			matched, segs = m, s
		}
	}
	return matched, segs
}

// FuzzSegment: over a random lexicon and query, MaxMatch, SegmentInto and
// SegmentFunc over the same lexicon return the same segments; the
// segments tile the query, unmatched ones are single tokens that are not
// phrases, matched ones are phrases; and on queries of at most 8 tokens
// the segmentation is the brute-force optimum. The seeds are in
// testdata/fuzz/FuzzSegment.
func FuzzSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, lexicon, query []byte) {
		s := NewSegmenter()
		set := map[string]bool{}
		maxLen := 0
		for _, p := range fuzzLexicon(lexicon) {
			s.AddPhrase(p)
			set[strings.Join(p, " ")] = true
			maxLen = max(maxLen, len(p))
		}
		if len(query) > 64 {
			query = query[:64]
		}
		tokens := make([]string, len(query))
		for i, b := range query {
			tokens[i] = fuzzAlphabet[b%4]
		}

		ref := s.MaxMatch(tokens)
		var sc MatchScratch
		prefix := []Segment{{Start: -1}}
		funcSegs := SegmentFunc(&sc, slices.Clone(prefix), tokens, maxLen, func(k []byte) bool { return set[string(k)] })
		if funcSegs[0].Start != -1 {
			t.Fatal("SegmentFunc overwrote dst's existing elements")
		}
		if segs := s.SegmentInto(nil, tokens); !slices.Equal(segs, ref) {
			t.Fatalf("SegmentInto %+v, MaxMatch %+v", segs, ref)
		}
		if !slices.Equal(funcSegs[1:], ref) {
			t.Fatalf("SegmentFunc %+v, MaxMatch %+v", funcSegs[1:], ref)
		}

		matched, at := 0, 0
		for _, seg := range ref {
			key := strings.Join(tokens[seg.Start:seg.End], " ")
			switch {
			case seg.Start != at || seg.End <= seg.Start:
				t.Fatalf("segments %+v do not tile %d tokens", ref, len(tokens))
			case seg.Match && !set[key]:
				t.Fatalf("matched segment %q is not a phrase", key)
			case !seg.Match && (seg.End-seg.Start != 1 || set[key]):
				t.Fatalf("unmatched segment %+v over %q", seg, key)
			}
			if seg.Match {
				matched += seg.End - seg.Start
			}
			at = seg.End
		}
		if at != len(tokens) {
			t.Fatalf("segments %+v cover %d of %d tokens", ref, at, len(tokens))
		}
		if len(tokens) <= 8 {
			bm, bs := bruteForceOptimum(tokens, func(k string) bool { return set[k] })
			if matched != bm || len(ref) != bs {
				t.Fatalf("%q: %d matched tokens in %d segments, the optimum is %d in %d", tokens, matched, len(ref), bm, bs)
			}
		}
	})
}
