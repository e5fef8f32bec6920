package recommend

import (
	"bytes"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/pipeline"
)

type fixture struct {
	arts     *pipeline.Artifacts
	sessions [][2][]core.NodeID // (viewed, clicked) in node ids
	history  [][]core.NodeID    // co-view training sessions
}

// loadedShards freezes n into count shards, saves each and loads it back,
// and assembles the loaded shards into a set.
func loadedShards(t *testing.T, n *core.Net, count int) *core.ShardSet {
	t.Helper()
	shards := n.FreezeShards(count)
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadFrozen(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = loaded
	}
	set, err := core.NewShardSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	arts, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw := arts.World.ClickLog(120)
	f := &fixture{arts: arts}
	for i, s := range raw {
		var viewed, clicked []core.NodeID
		for _, id := range s.Viewed {
			viewed = append(viewed, arts.ItemNode[id])
		}
		for _, id := range s.Clicked {
			clicked = append(clicked, arts.ItemNode[id])
		}
		if i < 80 { // history for item-CF training
			f.history = append(f.history, append(append([]core.NodeID{}, viewed...), clicked...))
		} else {
			f.sessions = append(f.sessions, [2][]core.NodeID{viewed, clicked})
		}
	}
	return f
}

func TestRecommendInfersScenario(t *testing.T) {
	f := buildFixture(t)
	e := NewEngine(f.arts.Net.Freeze())
	viewed, _ := f.sessions[0][0], f.sessions[0][1]
	rec, ok := e.RecommendRanked(viewed, 5, nil)
	if !ok {
		t.Fatal("no recommendation for a scenario session")
	}
	if rec.Reason == "" || rec.Reason == "for " {
		t.Fatalf("empty reason: %q", rec.Reason)
	}
	for _, it := range rec.Items {
		for _, v := range viewed {
			if it == v {
				t.Fatal("recommended an already viewed item")
			}
		}
	}
}

func TestConceptRecommenderBeatsItemCFOnHitRate(t *testing.T) {
	f := buildFixture(t)
	net := f.arts.Net.Freeze()
	e := NewEngine(net)
	conceptRec := func(viewed []core.NodeID, k int) []core.NodeID {
		rec, ok := e.RecommendRanked(viewed, k, nil)
		if !ok {
			return nil
		}
		return rec.Items
	}
	cf := NewItemCF(f.history)
	k := 10
	resConcept := Replay(net, conceptRec, f.sessions, k)
	resCF := Replay(net, cf.Recommend, f.sessions, k)
	t.Logf("concept: %+v, itemCF: %+v", resConcept, resCF)
	if resConcept.HitRate <= resCF.HitRate {
		t.Fatalf("concept recommender (%.3f) should beat item-CF (%.3f) on scenario sessions", resConcept.HitRate, resCF.HitRate)
	}
	// Note: novelty parity is expected here because the item-CF baseline is
	// trained on the same scenario-structured sessions, so its co-view
	// matrix also crosses categories. The paper's novelty claim comes from
	// a user survey, not replay. We only require meaningful novelty.
	if resConcept.Novelty < 0.3 {
		t.Fatalf("concept recommender should cross categories: novelty %.3f", resConcept.Novelty)
	}
}

func TestItemCFRecommendsCoViewed(t *testing.T) {
	sessions := [][]core.NodeID{{1, 2, 3}, {1, 2}, {2, 3}}
	cf := NewItemCF(sessions)
	rec := cf.Recommend([]core.NodeID{1}, 2)
	if len(rec) == 0 || rec[0] != 2 {
		t.Fatalf("most co-viewed item should rank first: %v", rec)
	}
}

func TestRecommendEmptyViewed(t *testing.T) {
	f := buildFixture(t)
	e := NewEngine(f.arts.Net.Freeze())
	if _, ok := e.RecommendRanked(nil, 5, nil); ok {
		t.Fatal("empty view history should not recommend")
	}
}

func TestReplayEmptySessions(t *testing.T) {
	f := buildFixture(t)
	res := Replay(f.arts.Net.Freeze(), func([]core.NodeID, int) []core.NodeID { return nil }, nil, 5)
	if res.HitRate != 0 || res.Covered != 0 {
		t.Fatalf("empty replay should be zero: %+v", res)
	}
}

// TestRecommendFrozenMatchesLive runs the same sessions through an engine
// on the net's one-shard freeze ("live") and one on a 3-shard partition
// saved and loaded back ("frozen"), the form a served catalog takes.
func TestRecommendFrozenMatchesLive(t *testing.T) {
	f := buildFixture(t)
	one := f.arts.Net.Freeze()
	snap := loadedShards(t, f.arts.Net, 3)
	live := NewEngine(one)
	frozen := NewEngine(snap)
	for _, s := range f.sessions {
		lr, lok := live.RecommendRanked(s[0], 5, nil)
		fr, fok := frozen.RecommendRanked(s[0], 5, nil)
		if lok != fok {
			t.Fatalf("ok differs for session %v", s[0])
		}
		if !lok {
			continue
		}
		if lr.Concept != fr.Concept || lr.Reason != fr.Reason {
			t.Fatalf("concept differs: live %+v vs frozen %+v", lr, fr)
		}
		if len(lr.Items) != len(fr.Items) {
			t.Fatalf("item count differs: live %v vs frozen %v", lr.Items, fr.Items)
		}
	}
	lrep := Replay(one, func(v []core.NodeID, k int) []core.NodeID {
		r, ok := live.RecommendRanked(v, k, nil)
		if !ok {
			return nil
		}
		return r.Items
	}, f.sessions, 10)
	frep := Replay(snap, func(v []core.NodeID, k int) []core.NodeID {
		r, ok := frozen.RecommendRanked(v, k, nil)
		if !ok {
			return nil
		}
		return r.Items
	}, f.sessions, 10)
	if lrep.Covered != frep.Covered || lrep.HitRate != frep.HitRate || lrep.Novelty != frep.Novelty {
		t.Fatalf("replay differs: live %+v vs frozen %+v", lrep, frep)
	}
}
