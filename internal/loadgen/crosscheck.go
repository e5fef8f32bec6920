// Server-vs-client histogram cross-check: after a phase, scrape the
// server's /metrics, reconstruct its per-endpoint latency histograms
// onto the shared obs.Hist bucket layout, and assert they agree with the
// client-observed distribution. The two sides measure with identical
// buckets (the histogram was promoted to internal/obs for exactly this),
// so disagreement beyond bucket error plus network overhead means a
// telemetry bug — not measurement noise to shrug at.
package loadgen

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"alicoco/internal/obs"
	"alicoco/internal/serve"
)

// CrossCheckEndpoints are the endpoint label values of the serving
// histogram the load driver actually exercises (GET /search,
// POST /search/batch, GET /recommend).
var CrossCheckEndpoints = []string{"search", "search_batch", "recommend"}

// Scraper snapshots a server's latency telemetry via /metrics: the
// serve.MetricsHistogramName family.
type Scraper struct {
	BaseURL string
}

// Scrape fetches and strictly parses /metrics, returning the merged
// latency snapshot over CrossCheckEndpoints. Any format violation is an
// error: the scrape doubles as a live exposition-format test.
func (s *Scraper) Scrape() (obs.HistSnapshot, error) {
	var merged obs.HistSnapshot
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(s.BaseURL + "/metrics")
	if err != nil {
		return merged, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return merged, err
	}
	if resp.StatusCode != http.StatusOK {
		return merged, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	p, err := obs.ParseText(body)
	if err != nil {
		return merged, fmt.Errorf("/metrics failed strict parse: %w", err)
	}
	for _, ep := range CrossCheckEndpoints {
		snap, err := p.HistogramSnapshot(serve.MetricsHistogramName, "endpoint", ep)
		if err != nil {
			return merged, fmt.Errorf("endpoint %s: %w", ep, err)
		}
		merged.Merge(&snap)
	}
	return merged, nil
}

// ServerObs is the server-side view of one phase, recorded into the
// phase report next to the client-side numbers.
type ServerObs struct {
	Count2xx uint64  `json:"count_2xx"`
	P50MS    float64 `json:"p50_ms"`
	P99MS    float64 `json:"p99_ms"`
	MeanMS   float64 `json:"mean_ms"`
}

// crossCheckMinSamples gates the quantile comparison: under a few
// hundred samples one tail request moves p99 across buckets and the
// comparison is noise.
const crossCheckMinSamples = 200

// CrossCheck compares the server-observed latency delta of one phase
// against the client's Result. It returns the server-side summary and
// the list of violated assertions (empty = the histograms agree).
//
// Count: every client 2xx was served, so the server must have at least
// client2xx observations; the excess is bounded by responses the client
// gave up on (hangs, transport errors) — the server completed and
// recorded those 2xxs after the client stopped listening.
//
// Quantiles: per request, server time (handler only) <= client time
// (handler + network), so server quantiles sit at or below the client's,
// within one histogram bucket (12.5%) plus a small absolute term; and
// the client must not exceed the server by more than loopback overhead
// and scheduling jitter allow.
func CrossCheck(phase string, delta obs.HistSnapshot, r *Result) (ServerObs, []string) {
	so := ServerObs{
		Count2xx: delta.Count(),
		P50MS:    float64(delta.Quantile(0.50).Microseconds()) / 1000,
		P99MS:    float64(delta.Quantile(0.99).Microseconds()) / 1000,
		MeanMS:   float64(delta.Mean().Microseconds()) / 1000,
	}
	var viols []string
	c := r.Counts
	client2xx := c.OK + c.LateOK
	slack := c.Hang + c.NetErr + 2
	if so.Count2xx < client2xx {
		viols = append(viols, fmt.Sprintf(
			"%s: server recorded %d 2xx, client observed %d — server histogram is losing observations",
			phase, so.Count2xx, client2xx))
	}
	if so.Count2xx > client2xx+slack {
		viols = append(viols, fmt.Sprintf(
			"%s: server recorded %d 2xx, client observed %d (+%d slack) — server histogram is over-counting",
			phase, so.Count2xx, client2xx, slack))
	}
	if client2xx < crossCheckMinSamples {
		return so, viols
	}
	for _, q := range []float64{0.50, 0.99} {
		server := delta.Quantile(q)
		client := r.Lat.Quantile(q)
		// Server at or below client, within bucket error + 5ms absolute.
		if float64(server) > float64(client)*1.25+float64(5*time.Millisecond) {
			viols = append(viols, fmt.Sprintf(
				"%s: server p%g %v above client p%g %v — server cannot be slower than what clients saw",
				phase, q*100, server, q*100, client))
		}
		// Client within 2x server + 150ms: loopback overhead cannot
		// plausibly exceed that, so a larger gap means the server histogram
		// is under-measuring.
		if float64(client) > float64(server)*2+float64(150*time.Millisecond) {
			viols = append(viols, fmt.Sprintf(
				"%s: client p%g %v far above server p%g %v — server histogram is under-measuring",
				phase, q*100, client, q*100, server))
		}
	}
	return so, viols
}
