package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"time"

	"alicoco"
	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/core"
	"alicoco/internal/qcache"
	"alicoco/internal/serve"
)

// The traced run records spans from this package only, around the calls
// into each layer's public functions: one pass per layer entry point
// (HTTP, handler, facade, engine), each replaying the same op stream at
// concurrency 1 on its own freshly loaded facade after the same warm-up.
// A layer's self time is its mean span minus the mean of what it calls.

type layer uint8

const (
	layerHTTP layer = iota
	layerHandler
	layerFacade
	layerSearchEngine
	layerRecommendEngine
	numLayers
)

var layerNames = [numLayers]string{"http", "handler", "facade", "search.engine", "recommend.engine"}

// layerParents names the layer that calls each one in production.
var layerParents = [numLayers]string{"client", "http", "handler", "facade", "facade"}

type span struct {
	layer      layer
	op         uint64
	start, end int64 // ns since the tracer's epoch
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

type tracer struct{ epoch time.Time }

func (t *tracer) span(l layer, op uint64, t0, t1 time.Time) span {
	return span{layer: l, op: op, start: int64(t0.Sub(t.epoch)), end: int64(t1.Sub(t.epoch))}
}

// pass replays the op stream through one entry point and keeps the spans
// of its measured part.
type pass struct {
	tr     *tracer
	g      *generator
	sz     passSizes
	rec    bool
	spans  []span
	ops    int // measured ops
	misses int // handler pass: requests that reached the facade
}

func (p *pass) add(l layer, i uint64, t0, t1 time.Time) {
	if p.rec {
		p.spans = append(p.spans, p.tr.span(l, i, t0, t1))
	}
}

// meanUS is the mean duration of the pass's spans of layer l, in µs.
func (p *pass) meanUS(l layer) float64 {
	var sum time.Duration
	n := 0
	for _, s := range p.spans {
		if s.layer == l {
			sum += s.dur()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum.Seconds() * 1e6 / float64(n)
}

// perOpUS is the summed duration of the spans of layers ls per measured
// op, in µs.
func (p *pass) perOpUS(ls ...layer) float64 {
	var sum time.Duration
	for _, s := range p.spans {
		for _, l := range ls {
			if s.layer == l {
				sum += s.dur()
			}
		}
	}
	return ratio(sum.Seconds()*1e6, float64(p.ops))
}

// passSizes bounds one layer pass: warm ops first, then measured ops until
// either limit is reached.
type passSizes struct {
	warmOps, maxOps int
	maxDur          time.Duration
}

// warm replays the warm-up ops through call.
func (p *pass) warm(call func(i uint64, o op) error) error {
	for i := 0; i < p.sz.warmOps; i++ {
		if err := call(uint64(i), p.g.op(uint64(i))); err != nil {
			return err
		}
	}
	return nil
}

// measure replays the ops after the warm-up through call, recording spans.
func (p *pass) measure(call func(i uint64, o op) error) error {
	p.rec = true
	end := time.Now().Add(p.sz.maxDur)
	for i := p.sz.warmOps; i < p.sz.warmOps+p.sz.maxOps && time.Now().Before(end); i++ {
		if err := call(uint64(i), p.g.op(uint64(i))); err != nil {
			return err
		}
		p.ops++
	}
	return nil
}

func (p *pass) run(call func(i uint64, o op) error) error {
	if err := p.warm(call); err != nil {
		return err
	}
	return p.measure(call)
}

// passNames are the entry points of the traced passes, outermost first.
var passNames = []string{"http", "handler", "facade", "engine"}

// layerPasses runs one pass per entry point, each on its own freshly
// loaded facade, and returns them by entry point.
func (e *env) layerPasses(g *generator, tr *tracer, sz passSizes) (map[string]*pass, error) {
	out := map[string]*pass{}
	for _, name := range passNames {
		c, err := e.loadFresh()
		if err != nil {
			return nil, err
		}
		p := &pass{tr: tr, g: g, sz: sz}
		switch name {
		case "http":
			err = httpPass(p, c, e.dir)
		case "handler":
			err = handlerPass(p, c, e.dir)
		case "facade":
			err = facadePass(p, c)
		default:
			err = enginePass(p, c)
		}
		if err != nil {
			return nil, fmt.Errorf("%s pass: %w", name, err)
		}
		out[name] = p
	}
	return out, nil
}

func httpPass(p *pass, c *alicoco.CoCo, dir string) error {
	pe := &env{coco: c, sv: serve.New(c, serve.Config{SnapshotDir: dir})}
	if err := pe.listen(pe.sv.Handler(), 1); err != nil {
		return err
	}
	defer pe.close()
	return p.run(func(i uint64, o op) error {
		t0 := time.Now()
		status, err := pe.do(o, nil)
		t1 := time.Now()
		p.add(layerHTTP, i, t0, t1)
		if err != nil || !o.answered(status) {
			return fmt.Errorf("op %d %s: status %d, %v", i, o.path, status, err)
		}
		return nil
	})
}

func handlerPass(p *pass, c *alicoco.CoCo, dir string) error {
	h := serve.New(c, serve.Config{SnapshotDir: dir}).Handler()
	batches := 0
	call := func(i uint64, o op) error {
		var body io.Reader
		if o.body != nil {
			body = bytes.NewReader(o.body)
		}
		req := httptest.NewRequest(o.method(), o.path, body)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		p.add(layerHandler, i, t0, time.Now())
		if p.rec && o.body != nil {
			batches++
		}
		if !o.answered(w.Code) {
			return fmt.Errorf("op %d %s: status %d", i, o.path, w.Code)
		}
		return nil
	}
	if err := p.warm(call); err != nil {
		return err
	}
	before := scrapeHandler(h)
	if err := p.measure(call); err != nil {
		return err
	}
	after := scrapeHandler(h)
	// Batch requests always reach the facade; single ones only when they
	// miss the encoded-bytes cache.
	p.misses = batches
	for _, l := range []string{"search_bytes", "recommend_bytes"} {
		p.misses += int(after[l].misses - before[l].misses)
	}
	return nil
}

func scrapeHandler(h http.Handler) map[string]cacheCount {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	return parseCacheCounters(w.Body.Bytes())
}

func facadePass(p *pass, c *alicoco.CoCo) error {
	ctx := context.Background()
	return p.run(func(i uint64, o op) error {
		var qb [][]byte
		if o.kind == opSearchBatch {
			qb = queryBytes(o.queries)
		}
		var err error
		t0 := time.Now()
		switch o.kind {
		case opSearch:
			_, err = c.SearchCtx(ctx, o.queries[0], searchItems)
		case opRecommend:
			_, _, err = c.RecommendCtx(ctx, o.sessions[0], recommendK)
		case opSearchBatch:
			_, err = c.SearchBatchBytesCtx(ctx, qb, searchItems)
		case opRecommendBatch:
			_, err = c.RecommendBatchCtx(ctx, o.sessions, recommendK)
		}
		p.add(layerFacade, i, t0, time.Now())
		return err
	})
}

// enginePass builds the engines the way the facade builds them, over the
// loaded shards with a cache of the facade's default capacity, and calls
// them once per query or session.
func enginePass(p *pass, c *alicoco.CoCo) error {
	arts := c.Internal()
	set, err := core.NewShardSet(arts.Shards)
	if err != nil {
		return err
	}
	stamp := c.CacheStamp()
	se := search.NewEngine(set, arts.Serving.Stopwords)
	se.UseCache(qcache.New(alicoco.DefaultQueryCacheCapacity), stamp)
	re := recommend.NewEngine(set)
	re.UseCache(qcache.New(alicoco.DefaultQueryCacheCapacity), stamp)
	itemNode := make(map[int]core.NodeID, len(arts.Serving.Items))
	for _, it := range arts.Serving.Items {
		itemNode[it.WorldID] = it.Node
	}
	ctx := context.Background()
	var nodes []core.NodeID
	return p.run(func(i uint64, o op) error {
		for _, q := range o.queries {
			var err error
			var qb []byte
			if o.kind == opSearchBatch {
				qb = []byte(q)
			}
			t0 := time.Now()
			if qb != nil {
				_, err = se.SearchBytesCtx(ctx, qb, searchItems)
			} else {
				_, err = se.SearchCtx(ctx, q, searchItems)
			}
			p.add(layerSearchEngine, i, t0, time.Now())
			if err != nil {
				return err
			}
		}
		for _, s := range o.sessions {
			nodes = nodes[:0]
			for _, id := range s {
				if n, ok := itemNode[id]; ok {
					nodes = append(nodes, n)
				}
			}
			t0 := time.Now()
			_, _, err := re.RecommendCtx(ctx, nodes, recommendK)
			p.add(layerRecommendEngine, i, t0, time.Now())
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// maxSpansWritten caps how many spans of each pass the trace file keeps;
// the metrics use every span.
const maxSpansWritten = 20000

// writeTrace writes the spans of every pass to dir/trace-<workload>.json.
func writeTrace(dir, workload string, seed int64, passes map[string][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"passes\":{", workload, seed)
	first := true
	for _, name := range sortedKeys(passes) {
		spans := passes[name]
		if !first {
			w.WriteByte(',')
		}
		first = false
		kept := spans
		if len(kept) > maxSpansWritten {
			kept = kept[:maxSpansWritten]
		}
		fmt.Fprintf(w, "%q:{\"total\":%d,\"spans\":[", name, len(spans))
		for j, s := range kept {
			if j > 0 {
				w.WriteByte(',')
			}
			b, _ := json.Marshal(struct {
				Name   string `json:"name"`
				Op     uint64 `json:"op"`
				Start  int64  `json:"start"`
				End    int64  `json:"end"`
				Parent string `json:"parent"`
			}{layerNames[s.layer], s.op, s.start, s.end, layerParents[s.layer]})
			w.Write(b)
		}
		w.WriteString("]}")
	}
	w.WriteString("}}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
