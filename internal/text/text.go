// Package text provides the text-processing substrate for the AliCoCo
// reproduction: tokenization, vocabularies, IOB span encoding, the
// max-matching segmenter that search and the concept matcher run, an
// interpolated n-gram language model standing in for the paper's BERT
// perplexity feature (Section 5.2.2), and a lexicon-driven part-of-speech
// tagger standing in for the Stanford tagger (Section 5.3).
package text

import (
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize lower-cases s and splits it on whitespace. The synthetic corpus
// is generated pre-normalized, so no further normalization is needed.
func Tokenize(s string) []string {
	return AppendTokens(nil, s)
}

// AppendTokens is Tokenize into a caller-owned buffer: tokens are appended
// to dst as substrings of the lower-cased input. For input that is already
// lower-case (the serving steady state — strings.ToLower returns its
// argument unchanged then) a caller reusing dst pays zero allocations.
func AppendTokens(dst []string, s string) []string {
	s = strings.ToLower(s)
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// AppendLower lower-cases s into dst, producing exactly the bytes
// strings.ToLower would: each rune maps through unicode.ToLower, and an
// invalid UTF-8 byte becomes U+FFFD. It is the entry point of the bytes
// query pipeline — request bytes flow to the engines through reused
// buffers without ever materializing a string.
func AppendLower(dst, s []byte) []byte {
	for i := 0; i < len(s); {
		// ASCII fast path (the common case for queries): a single byte
		// lower-cases without a rune decode, exactly as strings.ToLower's
		// own ASCII loop does.
		if c := s[i]; c < utf8.RuneSelf {
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			dst = append(dst, c)
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = utf8.AppendRune(dst, utf8.RuneError)
		} else {
			dst = utf8.AppendRune(dst, unicode.ToLower(r))
		}
		i += size
	}
	return dst
}

// AppendTokensBytes splits an already lower-cased byte query (see
// AppendLower) on Unicode whitespace, appending subslices of s to dst —
// the bytes form of AppendTokens, splitting at exactly the same
// boundaries.
func AppendTokensBytes(dst [][]byte, s []byte) [][]byte {
	start := -1
	for i := 0; i < len(s); {
		// ASCII fast path mirroring AppendLower's: single-byte runes
		// split on the ASCII whitespace set without a rune decode
		// (unicode.IsSpace on an ASCII rune tests exactly these bytes).
		if c := s[i]; c < utf8.RuneSelf {
			if c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r' {
				if start >= 0 {
					dst = append(dst, s[start:i])
					start = -1
				}
			} else if start < 0 {
				start = i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if unicode.IsSpace(r) {
			if start >= 0 {
				dst = append(dst, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
		i += size
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// Reserved vocabulary ids.
const (
	PadID = 0
	UnkID = 1
)

// Vocab maps words to dense integer ids. Id 0 is padding and id 1 the
// unknown token.
type Vocab struct {
	byWord map[string]int
	words  []string
	frozen bool
}

// NewVocab returns a vocabulary containing only the reserved tokens.
func NewVocab() *Vocab {
	v := &Vocab{byWord: make(map[string]int)}
	v.Add("<pad>")
	v.Add("<unk>")
	return v
}

// Add inserts w if absent and returns its id. On a frozen vocabulary,
// unknown words map to UnkID.
func (v *Vocab) Add(w string) int {
	if id, ok := v.byWord[w]; ok {
		return id
	}
	if v.frozen {
		return UnkID
	}
	id := len(v.words)
	v.byWord[w] = id
	v.words = append(v.words, w)
	return id
}

// Freeze stops the vocabulary from growing; unseen words become <unk>.
func (v *Vocab) Freeze() { v.frozen = true }

// ID returns the id of w, or UnkID if unseen.
func (v *Vocab) ID(w string) int {
	if id, ok := v.byWord[w]; ok {
		return id
	}
	return UnkID
}

// Has reports whether w is in the vocabulary.
func (v *Vocab) Has(w string) bool {
	_, ok := v.byWord[w]
	return ok
}

// Word returns the word for id, or "<unk>" for out-of-range ids.
func (v *Vocab) Word(id int) string {
	if id < 0 || id >= len(v.words) {
		return "<unk>"
	}
	return v.words[id]
}

// Len returns the vocabulary size including reserved tokens.
func (v *Vocab) Len() int { return len(v.words) }

// Encode maps tokens to ids, adding unseen tokens unless frozen.
func (v *Vocab) Encode(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = v.Add(t)
	}
	return ids
}

// EncodeFixed maps tokens to ids without ever growing the vocabulary.
func (v *Vocab) EncodeFixed(tokens []string) []int {
	ids := make([]int, len(tokens))
	for i, t := range tokens {
		ids[i] = v.ID(t)
	}
	return ids
}

// Span is a labeled token range [Start, End) within a sentence.
type Span struct {
	Start, End int
	Label      string
}

// EncodeIOB renders spans over a sentence of n tokens as IOB tags
// ("B-Label", "I-Label", "O"). Overlapping spans are resolved first-wins in
// sorted order.
func EncodeIOB(n int, spans []Span) []string {
	tags := make([]string, n)
	for i := range tags {
		tags[i] = "O"
	}
	sorted := append([]Span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	for _, sp := range sorted {
		if sp.Start < 0 || sp.End > n || sp.Start >= sp.End {
			continue
		}
		conflict := false
		for i := sp.Start; i < sp.End; i++ {
			if tags[i] != "O" {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		tags[sp.Start] = "B-" + sp.Label
		for i := sp.Start + 1; i < sp.End; i++ {
			tags[i] = "I-" + sp.Label
		}
	}
	return tags
}

// DecodeIOB extracts spans from IOB tags, tolerating I- tags that start a
// span (treated as B-).
func DecodeIOB(tags []string) []Span {
	var spans []Span
	var cur *Span
	flush := func() {
		if cur != nil {
			spans = append(spans, *cur)
			cur = nil
		}
	}
	for i, tag := range tags {
		switch {
		case tag == "O" || tag == "":
			flush()
		case strings.HasPrefix(tag, "B-"):
			flush()
			cur = &Span{Start: i, End: i + 1, Label: tag[2:]}
		case strings.HasPrefix(tag, "I-"):
			label := tag[2:]
			if cur != nil && cur.Label == label && cur.End == i {
				cur.End = i + 1
			} else {
				flush()
				cur = &Span{Start: i, End: i + 1, Label: label}
			}
		default:
			flush()
		}
	}
	flush()
	return spans
}

// IOBLabelSet builds the tag inventory ("O", "B-X", "I-X" for each class) in
// a deterministic order and returns the tag list plus a tag->index map.
func IOBLabelSet(classes []string) ([]string, map[string]int) {
	sorted := append([]string(nil), classes...)
	sort.Strings(sorted)
	tags := []string{"O"}
	for _, c := range sorted {
		tags = append(tags, "B-"+c, "I-"+c)
	}
	idx := make(map[string]int, len(tags))
	for i, t := range tags {
		idx[t] = i
	}
	return tags, idx
}
