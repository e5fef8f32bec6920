// Package loadgen is the open-loop replay load generator behind
// cmd/cocoload: request mixes derived from the world model's click-log
// distributions (uniform, zipf-skewed, adversarial cache-miss), a
// lock-free latency histogram, an open-loop driver with a client retry
// budget, and the SLO checks the chaos suite asserts. Open-loop means
// arrivals are scheduled by the clock, not by responses — a slow server
// faces the same offered load as a fast one, so the measured tail includes
// the queueing a closed-loop (wait-for-response) driver would hide
// (coordinated omission).
package loadgen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"alicoco"
)

// Corpus is the replayable material extracted from a built net: real
// concept surfaces for search queries and world-model click sessions for
// recommendations.
type Corpus struct {
	Queries  []string // e-commerce concept names, insertion order
	Sessions [][]int  // viewed-item ID sessions from world.ClickLog
}

// CorpusFrom samples a corpus from a built facade. A facade loaded from a
// store has no world model, so no click log to sample sessions from, and
// is refused.
func CorpusFrom(c *alicoco.CoCo, sessions int) (*Corpus, error) {
	cp := &Corpus{}
	for _, cpt := range c.Concepts() {
		cp.Queries = append(cp.Queries, cpt.Name)
	}
	if len(cp.Queries) == 0 {
		return nil, fmt.Errorf("loadgen: net has no e-commerce concepts to query")
	}
	cp.Sessions = c.SampleSessions(sessions)
	if len(cp.Sessions) == 0 {
		return nil, fmt.Errorf("loadgen: facade has no click log to sample sessions from; build it rather than load it")
	}
	return cp, nil
}

// Op is one generated request: a search query or a recommend session.
type Op struct {
	Recommend bool
	Query     string // search query text (unescaped) when !Recommend
	Session   []int  // viewed item IDs when Recommend
}

// Mix generates ops from a named distribution. A Mix is NOT safe for
// concurrent use — the open-loop driver draws from it on its single
// generator goroutine.
type Mix struct {
	Name string

	corpus      *Corpus
	rng         *rand.Rand
	zipf        *rand.Zipf
	adversarial bool
	recFrac     float64
	missCount   int // adversarial miss-query counter, makes every miss unique
}

// MixNames lists the supported distributions.
var MixNames = []string{"uniform", "zipf", "adversarial"}

// NewMix builds a generator over the corpus:
//
//   - "uniform": every concept equally likely — the cache-friendliest
//     realistic load.
//   - "zipf": hot-key skew (s=1.1), the shape production query logs
//     actually have; a small working set dominates, so caches help and
//     the miss tail is what matters.
//   - "adversarial": cache-busting — most queries are unique multi-token
//     misses that force the full segmentation/voting scatter, sessions
//     mix in unknown item IDs. This is the mix that exposes the uncached
//     engine path and the admission gate.
func NewMix(name string, corpus *Corpus, seed int64) (*Mix, error) {
	m := &Mix{Name: name, corpus: corpus, rng: rand.New(rand.NewSource(seed)), recFrac: 0.3}
	switch name {
	case "uniform":
	case "zipf":
		m.zipf = rand.NewZipf(m.rng, 1.1, 1, uint64(len(corpus.Queries)-1))
	case "adversarial":
		m.adversarial = true
	default:
		return nil, fmt.Errorf("loadgen: unknown mix %q (want one of %s)", name, strings.Join(MixNames, "/"))
	}
	return m, nil
}

// Next draws one op.
func (m *Mix) Next() Op {
	if m.rng.Float64() < m.recFrac {
		return Op{Recommend: true, Session: m.session()}
	}
	return Op{Query: m.query()}
}

func (m *Mix) query() string {
	qs := m.corpus.Queries
	switch {
	case m.zipf != nil:
		return qs[int(m.zipf.Uint64())]
	case m.adversarial:
		switch m.rng.Intn(10) {
		case 0, 1: // some real traffic keeps the comparison honest
			return qs[m.rng.Intn(len(qs))]
		case 2, 3, 4: // token salad of two real concepts: miss that still votes
			a, b := qs[m.rng.Intn(len(qs))], qs[m.rng.Intn(len(qs))]
			return a + " " + b
		default: // unique never-seen query: full miss, never a cache hit
			m.missCount++
			return qs[m.rng.Intn(len(qs))] + " zzq" + strconv.Itoa(m.missCount)
		}
	default:
		return qs[m.rng.Intn(len(qs))]
	}
}

func (m *Mix) session() []int {
	ss := m.corpus.Sessions
	s := ss[m.rng.Intn(len(ss))]
	if !m.adversarial {
		return s
	}
	// Adversarial sessions splice in unknown item IDs and permute, so the
	// session-key cache misses and some votes resolve to nothing.
	out := make([]int, 0, len(s)+1)
	out = append(out, s...)
	out = append(out, 1_000_000+m.rng.Intn(1_000_000))
	m.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
