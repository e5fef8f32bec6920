package recommend

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/pipeline"
	"alicoco/internal/raceflag"
)

func scratchArts(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	a, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func randomSessions(a *pipeline.Artifacts, rng *rand.Rand, n int) [][]core.NodeID {
	items := a.Net.Freeze().NodesOfKind(core.KindItem)
	out := make([][]core.NodeID, n)
	for i := range out {
		sess := make([]core.NodeID, 1+rng.Intn(6))
		for j := range sess {
			sess[j] = items[rng.Intn(len(items))]
		}
		out[i] = sess
	}
	return out
}

// mustRecommendInto runs one session through RecommendInto with no
// deadline.
func mustRecommendInto(t testing.TB, e *Engine, rec *Recommendation, viewed []core.NodeID, k int) bool {
	t.Helper()
	ok, err := e.RecommendInto(context.Background(), rec, viewed, k)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func recsEqual(a, b Recommendation) bool {
	if a.Concept != b.Concept || a.Reason != b.Reason || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// refRankedItems is the pre-heap specification of the score path: sort all
// unseen candidates by (score desc, id asc), take k.
func refRankedItems(net *core.ShardSet, best core.NodeID, viewed []core.NodeID, k int, score func([]core.NodeID, core.NodeID) float64) []core.NodeID {
	seen := make(map[core.NodeID]bool)
	for _, v := range viewed {
		seen[v] = true
	}
	type cand struct {
		id core.NodeID
		s  float64
	}
	var cs []cand
	for _, he := range net.ItemsForEConcept(best, 0) {
		if !seen[he.Peer] {
			cs = append(cs, cand{he.Peer, score(viewed, he.Peer)})
		}
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].s != cs[j].s {
			return cs[i].s > cs[j].s
		}
		return cs[i].id < cs[j].id
	})
	var out []core.NodeID
	for _, c := range cs {
		out = append(out, c.id)
		if len(out) >= k {
			break
		}
	}
	return out
}

// TestRecommendIntoReusedMatchesFresh replays randomized sessions through
// one reused Recommendation and checks every answer against a fresh
// RecommendCtx call.
func TestRecommendIntoReusedMatchesFresh(t *testing.T) {
	a := scratchArts(t)
	e := NewEngine(a.Net.Freeze())
	rng := rand.New(rand.NewSource(11))
	var reused Recommendation
	for _, sess := range randomSessions(a, rng, 300) {
		k := 1 + rng.Intn(8)
		gotOK := mustRecommendInto(t, e, &reused, sess, k)
		fresh, wantOK, err := e.RecommendCtx(context.Background(), sess, k)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK {
			t.Fatalf("session %v: ok %v vs %v", sess, gotOK, wantOK)
		}
		if gotOK && !recsEqual(reused, fresh) {
			t.Fatalf("session %v: reused %+v differs from fresh %+v", sess, reused, fresh)
		}
	}
}

// TestRecommendRankedHeapMatchesSort proves the k-bounded heap in the
// scoring path selects exactly what the full sort used to.
func TestRecommendRankedHeapMatchesSort(t *testing.T) {
	a := scratchArts(t)
	frozen := a.Net.Freeze()
	e := NewEngine(frozen)
	rng := rand.New(rand.NewSource(13))
	// A deliberately collision-heavy score so ID tie-breaks are exercised.
	score := func(viewed []core.NodeID, item core.NodeID) float64 {
		return float64((int(item) + len(viewed)) % 4)
	}
	for _, sess := range randomSessions(a, rng, 200) {
		k := 1 + rng.Intn(6)
		rec, ok := e.RecommendRanked(sess, k, score)
		if !ok {
			continue
		}
		want := refRankedItems(frozen, rec.Concept, sess, k, score)
		if len(rec.Items) != len(want) {
			t.Fatalf("session %v k=%d: %d items, want %d", sess, k, len(rec.Items), len(want))
		}
		for i := range want {
			if rec.Items[i] != want[i] {
				t.Fatalf("session %v k=%d: rank %d item %d, want %d", sess, k, i, rec.Items[i], want[i])
			}
		}
	}
}

// TestRecommendConcurrent hammers the pooled scratch path under -race.
func TestRecommendConcurrent(t *testing.T) {
	a := scratchArts(t)
	e := NewEngine(a.Net.Freeze())
	rng := rand.New(rand.NewSource(17))
	sessions := randomSessions(a, rng, 16)
	want := make([]Recommendation, len(sessions))
	okWant := make([]bool, len(sessions))
	for i, s := range sessions {
		want[i], okWant[i] = e.RecommendRanked(s, 5, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var rec Recommendation
			for i := 0; i < 150; i++ {
				si := (g + i) % len(sessions)
				ok, err := e.RecommendInto(context.Background(), &rec, sessions[si], 5)
				if err != nil || ok != okWant[si] || (ok && !recsEqual(rec, want[si])) {
					t.Errorf("goroutine %d: answer for session %d drifted", g, si)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRecommendIntoZeroAllocs guards the recommend leg of the
// zero-allocation serving path: a reused Recommendation served from a
// frozen snapshot allocates nothing per session.
func TestRecommendIntoZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	a := scratchArts(t)
	e := NewEngine(a.Net.Freeze())
	rng := rand.New(rand.NewSource(29))
	sessions := randomSessions(a, rng, 8)
	ctx := context.Background()
	var rec Recommendation
	for _, s := range sessions { // warm pooled scratch and Items buffer
		mustRecommendInto(t, e, &rec, s, 10)
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, s := range sessions {
			_, _ = e.RecommendInto(ctx, &rec, s, 10)
		}
	})
	if allocs != 0 {
		t.Fatalf("RecommendInto allocates %.1f times per run, want 0", allocs)
	}
}
