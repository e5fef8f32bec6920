package serve

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"alicoco/internal/resilience"
)

// TestNewNegativeConfigTurnsOff: a negative Config field turns its knob
// off — New builds no admission gate, and a request that reaches admission
// carries no deadline on either endpoint class — while zero fields keep
// the cocoserve defaults.
func TestNewNegativeConfigTurnsOff(t *testing.T) {
	s := testServer(t)
	off := New(s.coco, Config{MaxInflight: -1, Deadline: -1, BatchDeadline: -1}).s
	if off.gate != nil {
		t.Fatalf("MaxInflight -1 built a gate: %+v", off.gate.Stats())
	}
	for _, d := range []time.Duration{off.cfg.deadline, off.cfg.batchDeadline} {
		rec := httptest.NewRecorder()
		ctx, release, ok := off.admit(rec, httptest.NewRequest(http.MethodGet, "/search?q=grill", nil), d, resilience.PriorityNormal)
		if !ok {
			t.Fatalf("admission with deadline %v refused: %d %s", d, rec.Code, rec.Body)
		}
		_, has := ctx.Deadline()
		release()
		if has {
			t.Fatalf("deadline %v attached a deadline to the request", d)
		}
	}
	def := New(s.coco, Config{}).s
	if want := defaultServeConfig(); def.gate == nil || def.cfg.deadline != want.deadline || def.cfg.batchDeadline != want.batchDeadline {
		t.Fatalf("zero Config lost the defaults: gate %v, deadlines %v / %v", def.gate != nil, def.cfg.deadline, def.cfg.batchDeadline)
	}
}
