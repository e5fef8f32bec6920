package text

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"alicoco/internal/raceflag"
)

// randomLexicon builds a segmenter over phrases drawn from a small token
// alphabet, so random sentences hit overlapping multi-token phrases often.
func randomLexicon(rng *rand.Rand) (*Segmenter, []string) {
	alphabet := make([]string, 12)
	for i := range alphabet {
		alphabet[i] = fmt.Sprintf("w%d", i)
	}
	s := NewSegmenter()
	for i := 0; i < 30; i++ {
		l := 1 + rng.Intn(3)
		phrase := make([]string, l)
		for j := range phrase {
			phrase[j] = alphabet[rng.Intn(len(alphabet))]
		}
		s.AddPhrase(phrase)
		if rng.Intn(4) == 0 { // some phrases are added twice
			s.AddPhrase(phrase)
		}
	}
	return s, alphabet
}

// TestSegmentIntoMatchesMaxMatch replays a randomized sentence stream
// through one reused buffer and compares every segmentation (boundaries
// and matches) against a fresh MaxMatch call — the equivalence leg of the
// pooled-DP-scratch change. Run under -race it also proves concurrent
// SegmentInto calls never share scratch state.
func TestSegmentIntoMatchesMaxMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		s, alphabet := randomLexicon(rng)
		var reused []Segment
		for sent := 0; sent < 50; sent++ {
			tokens := make([]string, rng.Intn(12))
			for i := range tokens {
				tokens[i] = alphabet[rng.Intn(len(alphabet))]
			}
			reused = s.SegmentInto(reused[:0], tokens)
			fresh := s.MaxMatch(tokens)
			if !slices.Equal(reused, fresh) {
				t.Fatalf("trial %d sentence %d %v:\nSegmentInto %+v\nMaxMatch    %+v",
					trial, sent, tokens, reused, fresh)
			}
			// Coverage invariant: segments tile [0, len(tokens)).
			pos := 0
			for _, seg := range reused {
				if seg.Start != pos || seg.End <= seg.Start {
					t.Fatalf("segments do not tile %v: %+v", tokens, reused)
				}
				pos = seg.End
			}
			if pos != len(tokens) {
				t.Fatalf("segments do not cover %v: %+v", tokens, reused)
			}
		}
	}
}

// TestSegmentIntoConcurrent hammers one segmenter from several goroutines
// with per-goroutine buffers; -race proves the pooled DP scratches never
// leak between in-flight calls.
func TestSegmentIntoConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s, alphabet := randomLexicon(rng)
	sentences := make([][]string, 16)
	want := make([][]Segment, len(sentences))
	for i := range sentences {
		tokens := make([]string, 1+rng.Intn(10))
		for j := range tokens {
			tokens[j] = alphabet[rng.Intn(len(alphabet))]
		}
		sentences[i] = tokens
		want[i] = s.MaxMatch(tokens)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []Segment
			for i := 0; i < 300; i++ {
				si := (g + i) % len(sentences)
				buf = s.SegmentInto(buf[:0], sentences[si])
				if !slices.Equal(buf, want[si]) {
					t.Errorf("goroutine %d: segmentation of %v drifted", g, sentences[si])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSegmentIntoAppends: SegmentInto appends after existing elements like
// the append builtin, so callers can accumulate segmentations.
func TestSegmentIntoAppends(t *testing.T) {
	s := NewSegmenter()
	s.AddPhrase([]string{"outdoor", "barbecue"})
	first := s.SegmentInto(nil, []string{"outdoor", "barbecue"})
	both := s.SegmentInto(first, []string{"grill"})
	if len(both) != 2 || both[0].End != 2 || both[1].Start != 0 || both[1].End != 1 {
		t.Fatalf("append semantics broken: %+v", both)
	}
}

// TestSegmentIntoZeroAllocs is the CI guard: segmentation through a reused
// buffer on a warmed segmenter performs zero allocations per call, which
// is what extends the serving path's 0 allocs/op property to non-exact
// (voting) queries.
func TestSegmentIntoZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	s := NewSegmenter()
	s.AddPhrase([]string{"outdoor", "barbecue"})
	s.AddPhrase([]string{"barbecue"})
	s.AddPhrase([]string{"winter", "coat"})
	tokens := []string{"winter", "coat", "for", "outdoor", "barbecue"}
	var buf []Segment
	buf = s.SegmentInto(buf[:0], tokens) // warm the pooled scratch and dst
	if len(buf) == 0 {
		t.Fatal("no segments")
	}
	allocs := testing.AllocsPerRun(200, func() {
		buf = s.SegmentInto(buf[:0], tokens)
	})
	if allocs != 0 {
		t.Fatalf("SegmentInto allocates %.1f times per op, want 0", allocs)
	}
}

// BenchmarkSegmentInto measures the pooled-scratch DP against the
// allocating MaxMatch on a serving-shaped query (recorded by
// scripts/bench.sh in BENCH_core.json).
func BenchmarkSegmentInto(b *testing.B) {
	s := NewSegmenter()
	s.AddPhrase([]string{"outdoor", "barbecue"})
	s.AddPhrase([]string{"barbecue"})
	s.AddPhrase([]string{"grill"})
	s.AddPhrase([]string{"winter", "coat"})
	s.AddPhrase([]string{"coat"})
	tokens := []string{"winter", "coat", "outdoor", "barbecue", "grill"}
	b.Run("into", func(b *testing.B) {
		var buf []Segment
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = s.SegmentInto(buf[:0], tokens)
		}
	})
	b.Run("maxmatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.MaxMatch(tokens)
		}
	})
}

// TestPhraseKey: PhraseKey is strings.Join(strings.Fields(s), " ") with the
// field count, over strings of spaces (ASCII and Unicode), letters and
// invalid UTF-8, and it returns s itself, not a copy, when s is already in
// that form.
func TestPhraseKey(t *testing.T) {
	pieces := []string{" ", "  ", "\t", " ", "　", "a", "bc", "é", "\xff"}
	rng := rand.New(rand.NewSource(3))
	cases := []string{"", " ", "a", "a b", " a", "a ", "a  b", "a\tb", "a b", "\xff \xff"}
	for i := 0; i < 2000; i++ {
		var b strings.Builder
		for n := rng.Intn(7); n > 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		cases = append(cases, b.String())
	}
	for _, s := range cases {
		fields := strings.Fields(s)
		want := strings.Join(fields, " ")
		key, tokens := PhraseKey(s)
		if key != want || tokens != len(fields) {
			t.Fatalf("PhraseKey(%q) = %q, %d; want %q, %d", s, key, tokens, want, len(fields))
		}
		if s == want && s != "" && unsafe.StringData(key) != unsafe.StringData(s) {
			t.Fatalf("PhraseKey(%q) copied a string already in normal form", s)
		}
	}
}
