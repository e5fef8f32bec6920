package world

import (
	"reflect"
	"slices"
	"testing"
)

// corpusSizes are the sentence counts per source the tiny and default
// builds generate (pipeline.TinyOptions, pipeline.DefaultOptions).
var corpusSizes = []struct {
	name string
	cfg  Config
	n    int
}{
	{"tiny", TinyConfig(), 300},
	{"default", DefaultConfig(), 2000},
}

// TestGenGuidesDrawsLikeGenCorpus: GenGuides builds no query or review but
// makes every draw GenCorpus makes, so the guides are the same and the
// world's random stream ends in the same state — the next 1,000 draws and
// the click log after them agree. The net and every session drawn after
// the build rest on this.
func TestGenGuidesDrawsLikeGenCorpus(t *testing.T) {
	for _, tc := range corpusSizes {
		t.Run(tc.name, func(t *testing.T) {
			full, drawn := New(tc.cfg), New(tc.cfg)
			c := full.GenCorpus(tc.n, tc.n, tc.n)
			guides := drawn.GenGuides(tc.n, tc.n, tc.n)
			if len(c.Queries) != tc.n || len(c.Reviews) != tc.n {
				t.Fatalf("GenCorpus made %d queries and %d reviews, want %d each", len(c.Queries), len(c.Reviews), tc.n)
			}
			if !reflect.DeepEqual(c.Guides, guides) {
				t.Fatal("GenGuides and GenCorpus emit different guides")
			}
			for i := 0; i < 1000; i++ {
				if a, b := full.rng.Int63(), drawn.rng.Int63(); a != b {
					t.Fatalf("draw %d after the corpus: %d after GenCorpus, %d after GenGuides", i, a, b)
				}
			}
			if !reflect.DeepEqual(full.ClickLog(256), drawn.ClickLog(256)) {
				t.Fatal("ClickLog(256) differs after GenCorpus and after GenGuides")
			}
		})
	}
}

// itemFramesScan is ItemFrames as a scan of every frame: the frames that
// require the item's leaf and whose audience, if any, the item does not
// contradict, in frame order. It is the reference the leaf index is
// checked against.
func itemFramesScan(w *World, itemID int) []int {
	var out []int
	item := w.Items[itemID]
	for _, f := range w.Frames {
		if !slices.Contains(f.Required, item.Leaf) {
			continue
		}
		if f.Audience >= 0 {
			if aud := w.itemAudience(item); aud >= 0 && aud != f.Audience {
				continue
			}
		}
		out = append(out, f.ID)
	}
	return out
}

// TestItemFramesMatchesScan: ItemFrames, which reads the frames indexed by
// required leaf, returns what a scan of every frame returns, for every
// item of the tiny and default worlds.
func TestItemFramesMatchesScan(t *testing.T) {
	for _, tc := range corpusSizes {
		t.Run(tc.name, func(t *testing.T) {
			w := New(tc.cfg)
			withFrames := 0
			for _, item := range w.Items {
				got, want := w.ItemFrames(item.ID), itemFramesScan(w, item.ID)
				if !slices.Equal(got, want) {
					t.Fatalf("item %d: ItemFrames %v, scan %v", item.ID, got, want)
				}
				if len(want) > 0 {
					withFrames++
				}
			}
			if withFrames == 0 {
				t.Fatal("no item belongs to a frame: the comparison checks nothing")
			}
		})
	}
}
