// Exported embedding surface: cmd/cocoload (and tests that want a real
// server without a subprocess) runs the same server the cocoserve command
// runs, in-process. This is what lets the chaos drills inject faults via
// internal/faultfs — the injection points are process-global, so the
// server under test must share the process with the driver.
package serve

import (
	"net/http"
	"time"

	"alicoco"
	"alicoco/internal/resilience"
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
	// SnapshotDir, when non-empty, is the snapshot store the facade was
	// loaded from: reload, rollback and scrub run against its catalog.
	SnapshotDir string
}

func (c Config) toServeConfig() serveConfig {
	cfg := defaultServeConfig()
	cfg.cacheSize = alicoco.DefaultQueryCacheCapacity
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

// New wires a server around a built or loaded facade. With cfg.SnapshotDir
// the snapshot lifecycle (reload diffing, rollback, scrubbing) engages
// exactly as under the cocoserve command.
func New(coco *alicoco.CoCo, cfg Config) *Server {
	s := newServerCfg(coco, cfg.toServeConfig())
	s.store = cfg.SnapshotDir
	return &Server{s: s}
}

// Handler is the production handler stack: the full route mux wrapped in
// panic recovery, identical to what the cocoserve command serves.
func (sv *Server) Handler() http.Handler { return sv.s.handler() }

// GateStats snapshots the admission gate (zeros when gating is disabled).
func (sv *Server) GateStats() resilience.GateStats { return sv.s.gate.Stats() }
