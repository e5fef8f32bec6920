package text

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("  Warm  Hat for TRAVELING ")
	want := []string{"warm", "hat", "for", "traveling"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize: got %v", got)
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("Tokenize empty should be empty")
	}
}

func TestVocabBasics(t *testing.T) {
	v := NewVocab()
	if v.Len() != 2 {
		t.Fatalf("fresh vocab should hold pad+unk, got %d", v.Len())
	}
	id := v.Add("grill")
	if id != 2 {
		t.Fatalf("first word id: got %d", id)
	}
	if v.Add("grill") != id {
		t.Fatal("Add should be idempotent")
	}
	if v.ID("nope") != UnkID {
		t.Fatal("unseen word should map to unk")
	}
	if v.Word(id) != "grill" {
		t.Fatal("Word roundtrip failed")
	}
	if v.Word(9999) != "<unk>" {
		t.Fatal("out-of-range Word should be <unk>")
	}
}

func TestVocabFreeze(t *testing.T) {
	v := NewVocab()
	v.Add("a")
	v.Freeze()
	if v.Add("b") != UnkID {
		t.Fatal("frozen vocab must map new words to unk")
	}
	ids := v.EncodeFixed([]string{"a", "b"})
	if ids[0] == UnkID || ids[1] != UnkID {
		t.Fatalf("EncodeFixed: got %v", ids)
	}
}

func TestVocabEncodeGrows(t *testing.T) {
	v := NewVocab()
	ids := v.Encode([]string{"x", "y", "x"})
	if ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("Encode: got %v", ids)
	}
	if v.Len() != 4 {
		t.Fatalf("vocab size after encode: got %d", v.Len())
	}
}

func TestIOBRoundTrip(t *testing.T) {
	spans := []Span{{Start: 0, End: 2, Label: "Category"}, {Start: 3, End: 4, Label: "Event"}}
	tags := EncodeIOB(5, spans)
	want := []string{"B-Category", "I-Category", "O", "B-Event", "O"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("EncodeIOB: got %v", tags)
	}
	back := DecodeIOB(tags)
	if !reflect.DeepEqual(back, spans) {
		t.Fatalf("DecodeIOB: got %v", back)
	}
}

func TestIOBOverlapResolution(t *testing.T) {
	tags := EncodeIOB(3, []Span{{0, 2, "A"}, {1, 3, "B"}})
	if tags[0] != "B-A" || tags[1] != "I-A" || tags[2] != "O" {
		t.Fatalf("overlap: got %v", tags)
	}
}

func TestIOBInvalidSpansIgnored(t *testing.T) {
	tags := EncodeIOB(2, []Span{{-1, 1, "A"}, {0, 5, "B"}, {1, 1, "C"}})
	for _, tag := range tags {
		if tag != "O" {
			t.Fatalf("invalid spans should be dropped: %v", tags)
		}
	}
}

func TestDecodeIOBToleratesOrphanI(t *testing.T) {
	spans := DecodeIOB([]string{"I-X", "I-X", "O", "I-Y"})
	if len(spans) != 2 || spans[0].Label != "X" || spans[0].End != 2 || spans[1].Label != "Y" {
		t.Fatalf("orphan-I decode: got %v", spans)
	}
}

func TestDecodeIOBLabelChange(t *testing.T) {
	spans := DecodeIOB([]string{"B-X", "I-Y"})
	if len(spans) != 2 {
		t.Fatalf("label change should split spans: got %v", spans)
	}
}

func TestIOBLabelSet(t *testing.T) {
	tags, idx := IOBLabelSet([]string{"B", "A"})
	want := []string{"O", "B-A", "I-A", "B-B", "I-B"}
	if !reflect.DeepEqual(tags, want) {
		t.Fatalf("IOBLabelSet: got %v", tags)
	}
	if idx["I-B"] != 4 {
		t.Fatalf("index: got %d", idx["I-B"])
	}
}

// Property: EncodeIOB/DecodeIOB round-trips any set of disjoint spans.
func TestPropertyIOBRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		var spans []Span
		pos := 0
		labels := []string{"A", "B", "C"}
		for pos < n {
			l := 1 + rng.Intn(3)
			if pos+l > n {
				l = n - pos
			}
			if rng.Float64() < 0.6 {
				spans = append(spans, Span{Start: pos, End: pos + l, Label: labels[rng.Intn(3)]})
			}
			pos += l + rng.Intn(2)
		}
		tags := EncodeIOB(n, spans)
		back := DecodeIOB(tags)
		if len(back) != len(spans) {
			return false
		}
		for i := range back {
			if back[i] != spans[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the bytes query pipeline is byte-for-byte the string pipeline.
// AppendLower must produce exactly strings.ToLower's output and
// AppendTokensBytes must split at exactly AppendTokens' boundaries, for
// inputs mixing ASCII, multi-byte runes, non-ASCII whitespace (NEL, NBSP,
// ideographic space — all unicode.IsSpace, none on the ASCII fast path),
// and invalid UTF-8.
func TestPropertyBytesPipelineMatchesStrings(t *testing.T) {
	alphabet := []string{
		"a", "Z", "q", "M", "7", "-",
		" ", "\t", "\n", "\v", "\f", "\r",
		"É", "ß", "Ω", "控", "制", "🎛",
		"", " ", "　", // NEL, NBSP, ideographic space
		"\xff", "\xc3", "\xe4\xb8", // invalid / truncated UTF-8
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var sb strings.Builder
		for n := rng.Intn(24); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		s := sb.String()

		if got, want := string(AppendLower(nil, []byte(s))), strings.ToLower(s); got != want {
			t.Logf("AppendLower(%q) = %q, want %q", s, got, want)
			return false
		}
		lowered := strings.ToLower(s)
		var gotToks []string
		for _, tok := range AppendTokensBytes(nil, []byte(lowered)) {
			gotToks = append(gotToks, string(tok))
		}
		wantToks := AppendTokens(nil, s)
		if len(gotToks) != len(wantToks) {
			t.Logf("token count for %q: got %v want %v", s, gotToks, wantToks)
			return false
		}
		for i := range gotToks {
			if gotToks[i] != wantToks[i] {
				t.Logf("token %d for %q: got %q want %q", i, s, gotToks[i], wantToks[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmenterMaxMatch(t *testing.T) {
	s := NewSegmenter()
	s.AddPhrase([]string{"outdoor", "barbecue"})
	s.AddPhrase([]string{"outdoor"})
	s.AddPhrase([]string{"grill"})
	segs := s.MaxMatch([]string{"outdoor", "barbecue", "grill", "fun"})
	if len(segs) != 3 {
		t.Fatalf("segments: got %v", segs)
	}
	if segs[0].End != 2 || !segs[0].Match {
		t.Fatalf("longest match should win: %v", segs[0])
	}
	if !segs[1].Match {
		t.Fatalf("second segment: %v", segs[1])
	}
	if segs[2].Match {
		t.Fatalf("unmatched token should not match: %v", segs[2])
	}
}

func TestSegmenterEmptyInput(t *testing.T) {
	s := NewSegmenter()
	if s.MaxMatch(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestSegmenterDuplicatePhraseIgnored(t *testing.T) {
	s := NewSegmenter()
	s.AddPhrase([]string{"hat"})
	s.AddPhrase([]string{"hat"})
	if s.Len() != 1 {
		t.Fatalf("a phrase added twice counts %d times, want 1", s.Len())
	}
	if segs := s.MaxMatch([]string{"hat"}); len(segs) != 1 || !segs[0].Match {
		t.Fatalf("segments: got %v", segs)
	}
}

func TestNGramLMFluency(t *testing.T) {
	lm := NewNGramLM()
	corpus := [][]string{}
	for i := 0; i < 50; i++ {
		corpus = append(corpus, []string{"warm", "hat", "for", "winter"})
		corpus = append(corpus, []string{"red", "dress", "for", "party"})
	}
	lm.Train(corpus)
	fluent := lm.Perplexity([]string{"warm", "hat", "for", "winter"})
	scrambled := lm.Perplexity([]string{"winter", "for", "hat", "warm"})
	unseen := lm.Perplexity([]string{"zzz", "qqq"})
	if fluent >= scrambled {
		t.Fatalf("fluent %v should beat scrambled %v", fluent, scrambled)
	}
	if fluent >= unseen {
		t.Fatalf("fluent %v should beat unseen %v", fluent, unseen)
	}
}

func TestNGramLMWordFrequency(t *testing.T) {
	lm := NewNGramLM()
	lm.Train([][]string{{"a", "a", "b"}})
	if lm.WordFrequency("a") <= lm.WordFrequency("b") {
		t.Fatal("frequency ordering wrong")
	}
	if lm.WordFrequency("zzz") != 0 {
		t.Fatal("unseen word frequency should be 0")
	}
	empty := NewNGramLM()
	if empty.WordFrequency("a") != 0 {
		t.Fatal("untrained LM frequency should be 0")
	}
}

func TestNGramLMProbSumsToOne(t *testing.T) {
	lm := NewNGramLM()
	lm.Train([][]string{{"a", "b"}, {"b", "a"}, {"a", "a"}})
	// Sum of interpolated probabilities over the vocab + eos should be ~1
	// in any context when all unigram mass is covered.
	words := []string{"a", "b", eos}
	var sum float64
	for _, w := range words {
		sum += lm.prob("a", "b", w)
	}
	// add-one smoothing reserves some mass for unseen events, so the sum
	// over seen events must be < 1 but close.
	if sum <= 0.5 || sum > 1.0001 {
		t.Fatalf("probability mass looks wrong: %v", sum)
	}
}

func TestPOSTagger(t *testing.T) {
	tg := NewPOSTagger()
	tg.Learn("hat", PosNoun)
	tg.Learn("warm", PosAdj)
	if tg.Tag("hat") != PosNoun || tg.Tag("warm") != PosAdj {
		t.Fatal("lexicon tags wrong")
	}
	if tg.Tag("for") != PosPrep {
		t.Fatal("closed-class preposition wrong")
	}
	if tg.Tag("traveling") != PosVerb {
		t.Fatal("morphology -ing should be verb")
	}
	if tg.Tag("3pack") != PosNum {
		t.Fatal("digit-initial should be num")
	}
	if tg.Tag("gadget") != PosNoun {
		t.Fatal("default should be noun")
	}
	seq := tg.TagSeq([]string{"warm", "hat"})
	if seq[0] != PosAdj || seq[1] != PosNoun {
		t.Fatalf("TagSeq: got %v", seq)
	}
}

func TestPOSLearnDoesNotOverride(t *testing.T) {
	tg := NewPOSTagger()
	tg.Learn("for", PosNoun)
	if tg.Tag("for") != PosPrep {
		t.Fatal("Learn must not override closed-class entries")
	}
}

func TestPOSStrings(t *testing.T) {
	names := map[POS]string{PosNoun: "NOUN", PosAdj: "ADJ", PosVerb: "VERB", PosPrep: "PREP", PosNum: "NUM", PosOther: "OTHER"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("POS(%d).String: got %s want %s", p, p.String(), want)
		}
	}
}

func TestSegmenterPrefersFewerSegments(t *testing.T) {
	s := NewSegmenter()
	s.AddPhrase([]string{"a", "b", "c"})
	s.AddPhrase([]string{"a"})
	s.AddPhrase([]string{"b"})
	s.AddPhrase([]string{"c"})
	segs := s.MaxMatch([]string{"a", "b", "c"})
	if len(segs) != 1 || segs[0].End != 3 || !segs[0].Match {
		t.Fatalf("should prefer single long match: %v", segs)
	}
}
