// Exported embedding surface: cmd/cocoload (and tests that want a real
// server without a subprocess) runs the same server the cocoserve command
// runs, in-process. This is what lets the chaos drills inject faults via
// internal/faultfs — the injection points are process-global, so the
// server under test must share the process with the driver.
package serve

import (
	"net/http"
	"time"

	"alicoco/internal/resilience"
	"alicoco/internal/serving"
)

// Config is the embedding-facing serving policy. A zero field means the
// cocoserve default, and a negative one turns the field off: no gate, or
// no deadline. Everything Config does not name — the cache budget, the
// gate's adaptive controller, the slow-query log — runs at the cocoserve
// defaults.
type Config struct {
	// Deadline / BatchDeadline bound a cache-missing request's lifetime,
	// queue wait included; 0 means the defaults (2s / 15s).
	Deadline      time.Duration
	BatchDeadline time.Duration
	// MaxInflight engine dispatches run at once, QueueDepth more wait; 0
	// means the defaults (4x / 16x GOMAXPROCS).
	MaxInflight int
	QueueDepth  int
	// SnapshotDir is ignored: the server runs the snapshot lifecycle
	// (reload, rollback, scrub) on the store the core was loaded from.
	SnapshotDir string
}

func (c Config) toServeConfig() serveConfig {
	cfg := defaultServeConfig()
	cfg.cacheSize = serving.DefaultQueryCacheCapacity
	if c.Deadline != 0 {
		cfg.deadline = c.Deadline
	}
	if c.BatchDeadline != 0 {
		cfg.batchDeadline = c.BatchDeadline
	}
	if c.MaxInflight != 0 {
		cfg.maxInflight = c.MaxInflight
	}
	if c.QueueDepth != 0 {
		cfg.queueDepth = c.QueueDepth
	}
	return cfg
}

// Server is an embedded cocoserve instance.
type Server struct{ s *server }

// New wires a server around the serving core of a facade loaded from a
// snapshot store: the snapshot lifecycle (reload diffing, rollback,
// scrubbing) runs on that store exactly as under the cocoserve command.
// coco is a *serving.Core or anything that embeds one, such as the root
// *alicoco.CoCo; the server keeps the core.
func New(coco interface{ Serving() *serving.Core }, cfg Config) *Server {
	return &Server{s: newServerCfg(coco.Serving(), cfg.toServeConfig())}
}

// Handler is the production handler stack: the full route mux wrapped in
// panic recovery, identical to what the cocoserve command serves.
func (sv *Server) Handler() http.Handler { return sv.s.handler() }

// GateStats snapshots the admission gate (zeros when gating is disabled).
func (sv *Server) GateStats() resilience.GateStats { return sv.s.gate.Stats() }
