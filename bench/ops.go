package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"strconv"
	"strings"

	"alicoco"
)

// The generator lives in this package rather than reusing internal/loadgen,
// so later edits to cocoload cannot change what the benchmark sends. Op i
// of a stream is a pure function of (workload, seed, i): the closed-loop
// clients claim indices from one shared counter, so the stream is the same
// at any concurrency, and the answer check can replay any prefix of it.

// workloadNames lists the workloads in the order a full run executes them.
var workloadNames = []string{"hot", "cold", "batch", "churn"}

const (
	searchItems   = 12  // GET /search's per-card item count, and the batch default
	recommendK    = 10  // k sent with every recommend
	batchSize     = 32  // queries or sessions per batch request
	clickSessions = 256 // click-log sessions drawn from the world model
	searchShare   = 0.7 // share of search ops in every workload
	zipfS         = 1.1 // skew of hot search keys
)

type opKind uint8

const (
	opSearch opKind = iota
	opRecommend
	opSearchBatch
	opRecommendBatch
)

// op is one request: its payload (for the facade and engine passes and the
// answer check) and its HTTP rendering.
type op struct {
	kind     opKind
	queries  []string // one for opSearch, batchSize for opSearchBatch
	sessions [][]int  // one for opRecommend, batchSize for opRecommendBatch
	path     string   // request path with query string
	body     []byte   // POST body of the batch kinds
}

// size is how many operations the request answers.
func (o op) size() int {
	if o.kind == opSearchBatch || o.kind == opRecommendBatch {
		return batchSize
	}
	return 1
}

func (o op) method() string {
	if o.body != nil {
		return "POST"
	}
	return "GET"
}

// answered reports whether an HTTP status is an answer to o. A 404 from
// /recommend means "no recommendation", which is an answer too.
func (o op) answered(status int) bool {
	return status == 200 || (status == 404 && o.kind == opRecommend)
}

// corpus is the material requests are drawn from: the e-commerce concept
// names, the world model's click-log sessions, and every known item ID.
type corpus struct {
	concepts []string
	sessions [][]int
	items    []int
}

func corpusFrom(built *alicoco.CoCo) (*corpus, error) {
	c := &corpus{sessions: built.SampleSessions(clickSessions)}
	for _, cpt := range built.Concepts() {
		c.concepts = append(c.concepts, cpt.Name)
	}
	for _, it := range built.Items() {
		c.items = append(c.items, it.ID)
	}
	if len(c.concepts) == 0 || len(c.sessions) == 0 || len(c.items) == 0 {
		return nil, fmt.Errorf("corpus: %d concepts, %d sessions, %d items; need all three",
			len(c.concepts), len(c.sessions), len(c.items))
	}
	return c, nil
}

type generator struct {
	workload string
	seed     uint64
	c        *corpus
	zipfCDF  []float64 // hot: cumulative Zipf(zipfS) mass over concept ranks
	// Pre-rendered paths of the fixed key sets, so hot clients spend no
	// time escaping what they send.
	searchPath []string
	recPath    []string
}

func checkWorkload(name string) error {
	for _, w := range workloadNames {
		if w == name {
			return nil
		}
	}
	return fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

func newGenerator(workload string, seed int64, c *corpus) (*generator, error) {
	if err := checkWorkload(workload); err != nil {
		return nil, err
	}
	g := &generator{workload: workload, seed: mix64(uint64(seed)), c: c}
	var sum float64
	for k := range c.concepts {
		sum += math.Pow(float64(k+1), -zipfS)
		g.zipfCDF = append(g.zipfCDF, sum)
	}
	for k := range g.zipfCDF {
		g.zipfCDF[k] /= sum
	}
	for _, q := range c.concepts {
		g.searchPath = append(g.searchPath, searchPath(q))
	}
	for _, s := range c.sessions {
		g.recPath = append(g.recPath, recommendPath(s))
	}
	return g, nil
}

func searchPath(q string) string { return "/search?q=" + url.QueryEscape(q) }

func recommendPath(s []int) string {
	b := []byte("/recommend?items=")
	for j, id := range s {
		if j > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, "&k="...)
	b = strconv.AppendInt(b, recommendK, 10)
	return string(b)
}

// op returns op i of the stream.
func (g *generator) op(i uint64) op {
	r := rng{s: mix64(g.seed + i)}
	c := g.c
	search := r.float() < searchShare
	switch g.workload {
	case "hot", "churn":
		if search {
			k := sort.SearchFloat64s(g.zipfCDF, r.float())
			if k >= len(c.concepts) {
				k = len(c.concepts) - 1
			}
			return op{kind: opSearch, queries: c.concepts[k : k+1], path: g.searchPath[k]}
		}
		k := r.intn(len(c.sessions))
		return op{kind: opRecommend, sessions: c.sessions[k : k+1], path: g.recPath[k]}
	case "cold":
		if search {
			// The suffix token is unique per op, so no cache layer ever
			// sees the key twice; the two names still vote in the engine.
			q := c.concepts[r.intn(len(c.concepts))] + " " + c.concepts[r.intn(len(c.concepts))] +
				" zq" + strconv.FormatUint(i, 36)
			return op{kind: opSearch, queries: []string{q}, path: searchPath(q)}
		}
		// Known items keep every position in the engine key (unknown IDs
		// would be dropped before it), so the session keys do not repeat.
		s := append([]int(nil), c.sessions[r.intn(len(c.sessions))]...)
		p := r.intn(len(s))
		s[p] = c.items[r.intn(len(c.items))]
		if len(s) > 1 {
			q := (p + 1 + r.intn(len(s)-1)) % len(s)
			s[q] = c.items[r.intn(len(c.items))]
		}
		return op{kind: opRecommend, sessions: [][]int{s}, path: recommendPath(s)}
	default: // batch
		if search {
			qs := make([]string, batchSize)
			for j := range qs {
				qs[j] = c.concepts[r.intn(len(c.concepts))]
			}
			body, _ := json.Marshal(struct {
				Queries []string `json:"queries"`
			}{qs})
			return op{kind: opSearchBatch, queries: qs, path: "/search/batch", body: body}
		}
		ss := make([][]int, batchSize)
		for j := range ss {
			ss[j] = c.sessions[r.intn(len(c.sessions))]
		}
		body, _ := json.Marshal(struct {
			Sessions [][]int `json:"sessions"`
			K        int     `json:"k"`
		}{ss, recommendK})
		return op{kind: opRecommendBatch, sessions: ss, path: "/recommend/batch", body: body}
	}
}

// rng is splitmix64: cheap enough to seed once per op.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }
