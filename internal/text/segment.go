package text

import (
	"slices"
	"strings"
	"sync"
	"unicode"
)

// Segmenter performs maximum-matching segmentation of a token stream against
// a lexicon of known (possibly multi-token) phrases. The program itself is
// SegmentFunc, which the search engine also runs over its own lexicon at
// serving time; a Segmenter keeps a phrase set and runs it on pooled
// scratch (SegmentInto), so it does not allocate per call either.
type Segmenter struct {
	phrases map[string]struct{} // space-joined phrases
	maxLen  int
	pool    sync.Pool // *MatchScratch
}

// MatchScratch is the working memory of one SegmentFunc call: the DP table
// and the byte buffer phrase keys are joined into. The zero value is ready
// to use; a caller that reuses one (one per goroutine, or pooled)
// segments without allocating.
type MatchScratch struct {
	dp  []segState
	key []byte
}

// segState is one DP cell: the best (matched tokens, -segments) for a
// prefix, plus the backpointer (length of the last segment).
type segState struct {
	matched, segs int
	prevLen       int
	isMatch       bool
}

// NewSegmenter returns an empty segmenter.
func NewSegmenter() *Segmenter {
	s := &Segmenter{phrases: make(map[string]struct{})}
	s.pool.New = func() any { return &MatchScratch{} }
	return s
}

// AddPhrase registers a phrase (already tokenized, space-joined
// internally). Adding a phrase twice adds it once.
func (s *Segmenter) AddPhrase(tokens []string) {
	s.phrases[strings.Join(tokens, " ")] = struct{}{}
	if len(tokens) > s.maxLen {
		s.maxLen = len(tokens)
	}
}

// Len returns the number of distinct phrases.
func (s *Segmenter) Len() int { return len(s.phrases) }

// Segment is one unit of a segmentation: a token range and whether it
// matched the lexicon. Unmatched segments are single tokens.
type Segment struct {
	Start, End int
	Match      bool
}

// MaxMatch segments tokens greedily longest-match-first via dynamic
// programming: among segmentations that maximize total matched tokens it
// prefers fewer segments. Unmatched positions become single-token
// segments. It returns a fresh slice; hot callers should reuse a buffer
// through SegmentInto instead.
func (s *Segmenter) MaxMatch(tokens []string) []Segment { return s.SegmentInto(nil, tokens) }

// SegmentInto is MaxMatch appending into a caller-owned buffer: the DP
// table and the phrase-key join buffer come from a pooled scratch, and
// phrase lookups go through the allocation-free map[string(bytes)] form.
// With a reused dst, steady-state segmentation performs zero allocations.
func (s *Segmenter) SegmentInto(dst []Segment, tokens []string) []Segment {
	sc := s.pool.Get().(*MatchScratch)
	defer s.pool.Put(sc)
	return SegmentFunc(sc, dst, tokens, s.maxLen, s.has)
}

// has reports whether the lexicon holds the space-joined phrase key.
func (s *Segmenter) has(key []byte) bool {
	_, ok := s.phrases[string(key)] // alloc-free map key form
	return ok
}

// SegmentFunc is the max-match dynamic program every segmentation runs:
// it appends to dst the segmentation of tokens that matches the most
// tokens and, among those, has the fewest segments. A window of at most
// maxLen tokens is a lexicon phrase when has reports its tokens, joined by
// single spaces, to be one; has must not keep the key, which is a view of
// sc's buffer. Matched segments have Match set; every other token is a
// segment of its own. sc carries the DP table between calls, so
// with a reused dst and sc the call allocates nothing.
func SegmentFunc[T string | []byte](sc *MatchScratch, dst []Segment, tokens []T, maxLen int, has func(phrase []byte) bool) []Segment {
	n := len(tokens)
	if n == 0 {
		return dst
	}
	sc.dp = slices.Grow(sc.dp[:0], n+1)[:n+1]
	dp := sc.dp
	dp[0] = segState{}
	for i := 1; i <= n; i++ {
		// Default: single unmatched token.
		best := segState{matched: dp[i-1].matched, segs: dp[i-1].segs + 1, prevLen: 1, isMatch: false}
		maxL := maxLen
		if maxL > i {
			maxL = i
		}
		for l := 1; l <= maxL; l++ {
			sc.key = appendJoin(sc.key[:0], tokens[i-l:i])
			if !has(sc.key) {
				continue
			}
			cand := segState{matched: dp[i-l].matched + l, segs: dp[i-l].segs + 1, prevLen: l, isMatch: true}
			if cand.matched > best.matched || (cand.matched == best.matched && cand.segs < best.segs) {
				best = cand
			}
		}
		dp[i] = best
	}
	// Reconstruct back-to-front directly into dst: dp[n].segs is the exact
	// segment count, so the tail of dst is sized once and filled in place.
	base := len(dst)
	dst = slices.Grow(dst, dp[n].segs)[:base+dp[n].segs]
	idx := len(dst) - 1
	for i := n; i > 0; idx-- {
		st := dp[i]
		dst[idx] = Segment{Start: i - st.prevLen, End: i, Match: st.isMatch}
		i -= st.prevLen
	}
	return dst
}

// PhraseKey returns the lexicon key of a surface form — its whitespace-
// separated fields joined by single spaces, strings.Join(strings.Fields(s),
// " ") — and the number of fields. When s already has that form the key is
// s itself, not a copy, so a lexicon keyed by names that are views of a
// larger buffer costs no string per name.
func PhraseKey(s string) (key string, tokens int) {
	normal, inField := true, false
	for _, r := range s {
		if unicode.IsSpace(r) {
			if r != ' ' || !inField {
				normal = false // leading, repeated or non-' ' space
			}
			inField = false
		} else if !inField {
			inField = true
			tokens++
		}
	}
	if s != "" && !inField {
		normal = false // trailing space
	}
	if normal {
		return s, tokens
	}
	return strings.Join(strings.Fields(s), " "), tokens
}

// AppendJoinBytes writes byte-slice tokens space-separated into dst — the
// allocation-free form of strings.Join(tokens, " ") the serving paths key
// lexicon and name-index lookups with.
func AppendJoinBytes(dst []byte, tokens [][]byte) []byte {
	return appendJoin(dst, tokens)
}

func appendJoin[T string | []byte](dst []byte, tokens []T) []byte {
	for i, tok := range tokens {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, tok...)
	}
	return dst
}
