package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alicoco/internal/obs"
	"alicoco/internal/resilience"
)

// Options configures one open-loop run (a "phase").
type Options struct {
	// BaseURL is the server under load, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; its Timeout is overridden to the hang
	// cap. nil means a fresh client with a large connection pool.
	Client *http.Client

	Mix      *Mix
	Rate     float64       // arrivals per second (open loop)
	Duration time.Duration // how long to generate arrivals

	// Deadline is the server's per-request deadline: 2xx slower than it
	// count as late (admitted work that missed its SLO), and the hang cap
	// is derived from it (2x + 1s) — a response slower than the cap means
	// the server hung instead of shedding or canceling.
	Deadline time.Duration
	// BatchDeadline classifies batch POSTs instead of Deadline when set
	// (batches legitimately run longer); it also raises the hang cap.
	BatchDeadline time.Duration

	// BatchFraction of search ops are sent as size-BatchSize POST batches.
	BatchFraction float64
	BatchSize     int

	// MaxInFlight caps client-side concurrency; arrivals past the cap are
	// dropped and counted (the open loop never slows down, it sheds
	// client-side). Default 256.
	MaxInFlight int

	// Retry enables one budgeted retry of shed (429) requests after a
	// short jittered delay; Budget throttles it so a shed storm cannot
	// amplify offered load (nil Budget = unlimited retries; pass one).
	Retry  bool
	Budget *resilience.RetryBudget

	Seed int64
}

// Counts classifies every arrival's outcome. Sent >= the sum of response
// classes while requests are in flight; after Run returns they balance.
type Counts struct {
	Sent       uint64 `json:"sent"`
	OK         uint64 `json:"ok"`              // 2xx within Deadline+grace
	LateOK     uint64 `json:"late_ok"`         // 2xx but slower than Deadline+grace
	Shed       uint64 `json:"shed"`            // 429
	NotFound   uint64 `json:"not_found"`       // 404 (adversarial recommends)
	Rejected   uint64 `json:"rejected"`        // other 4xx
	ServerErr  uint64 `json:"server_err"`      // 5xx — SLO violation
	Hang       uint64 `json:"hang"`            // no response within the hang cap — SLO violation
	NetErr     uint64 `json:"net_err"`         // transport failure below the hang cap
	ClientDrop uint64 `json:"client_drop"`     // arrival dropped at MaxInFlight
	Retries    uint64 `json:"retries"`         // budgeted retries issued
	RetryDrops uint64 `json:"retry_drops"`     // retries suppressed by the budget
	RetryAfter uint64 `json:"retry_after_sum"` // sum of Retry-After secs seen (jitter visibility)
}

// Result is one phase's measurements.
type Result struct {
	Name      string
	Counts    Counts
	Lat       obs.Hist // client-measured latency of 2xx responses
	ShedLat   obs.Hist // latency of 429s (how fast the gate refuses)
	WallClock time.Duration
	// Goodput is in-deadline successes per second of wall clock — the
	// number overload must not collapse.
	Goodput float64
}

// deadlineGrace absorbs client-side measurement overhead (loopback RTT,
// scheduler jitter, response decode) when classifying a 2xx as in-deadline.
const deadlineGrace = 150 * time.Millisecond

// HangCap returns the client timeout for a server deadline: responses
// slower than this are hangs, not latency.
func HangCap(deadline time.Duration) time.Duration {
	if deadline <= 0 {
		return 30 * time.Second
	}
	return 2*deadline + time.Second
}

// Run drives one open-loop phase and blocks until every in-flight request
// resolves.
func Run(opts Options) (*Result, error) {
	if opts.Mix == nil {
		return nil, fmt.Errorf("loadgen: Options.Mix is required")
	}
	if opts.Rate <= 0 || opts.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Rate and Duration must be positive")
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 256
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 8
	}
	client := opts.Client
	if client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConns = opts.MaxInFlight * 2
		tr.MaxIdleConnsPerHost = opts.MaxInFlight * 2
		client = &http.Client{Transport: tr}
	}
	capBase := opts.Deadline
	if opts.BatchDeadline > capBase {
		capBase = opts.BatchDeadline
	}
	client.Timeout = HangCap(capBase)

	d := &driver{opts: opts, client: client, res: &Result{Name: opts.Mix.Name}}
	d.rng.Store(uint64(opts.Seed)*2 + 1)

	sem := make(chan struct{}, opts.MaxInFlight)
	var wg sync.WaitGroup
	interval := time.Duration(float64(time.Second) / opts.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	start := time.Now()
	end := start.Add(opts.Duration)

	// The generator: arrivals on the clock's schedule regardless of how
	// the server is doing. time.Sleep-based pacing accumulates error, so
	// the next arrival time is computed from the start (no drift).
	next := start
	for {
		now := time.Now()
		if now.After(end) {
			break
		}
		if now.Before(next) {
			time.Sleep(next.Sub(now))
		}
		next = next.Add(interval)
		op := opts.Mix.Next()
		atomic.AddUint64(&d.res.Counts.Sent, 1)
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() { <-sem; wg.Done() }()
				d.do(op)
			}()
		default:
			atomic.AddUint64(&d.res.Counts.ClientDrop, 1)
		}
	}
	wg.Wait()
	d.res.WallClock = time.Since(start)
	d.res.Goodput = float64(atomic.LoadUint64(&d.res.Counts.OK)) / d.res.WallClock.Seconds()
	return d.res, nil
}

type driver struct {
	opts   Options
	client *http.Client
	res    *Result
	rng    atomic.Uint64 // xorshift for retry jitter (shared by workers)
}

func (d *driver) rand() uint64 {
	for {
		old := d.rng.Load()
		x := old
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if d.rng.CompareAndSwap(old, x) {
			return x
		}
	}
}

// do issues one op (plus at most one budgeted retry of a shed).
func (d *driver) do(op Op) {
	d.opts.Budget.Attempt()
	for attempt := 0; ; attempt++ {
		status, retryAfter := d.send(op)
		if status != http.StatusTooManyRequests || !d.opts.Retry || attempt >= 1 {
			return
		}
		// The server shed us. Retrying is exactly how well-meaning clients
		// amplify overload — the budget is the brake: no tokens, no retry.
		if !d.opts.Budget.Spend() {
			atomic.AddUint64(&d.res.Counts.RetryDrops, 1)
			return
		}
		atomic.AddUint64(&d.res.Counts.Retries, 1)
		atomic.AddUint64(&d.res.Counts.RetryAfter, uint64(retryAfter))
		// Honor the hint's spirit at test timescale: a capped jittered
		// fraction of it, so phases lasting seconds still observe retries.
		wait := time.Duration(retryAfter) * time.Second / 10
		if wait > 300*time.Millisecond {
			wait = 300 * time.Millisecond
		}
		wait += time.Duration(d.rand() % uint64(50*time.Millisecond))
		time.Sleep(wait)
	}
}

// send issues the HTTP request for op and classifies the outcome; it
// returns the status (0 on transport error) and the parsed Retry-After.
func (d *driver) send(op Op) (status, retryAfter int) {
	var (
		resp  *http.Response
		err   error
		batch bool
	)
	start := time.Now()
	if op.Recommend {
		resp, err = d.client.Get(d.opts.BaseURL + "/recommend?items=" + joinInts(op.Session) + "&k=10")
	} else if d.opts.BatchFraction > 0 && float64(d.rand()%1000)/1000 < d.opts.BatchFraction {
		batch = true
		body := batchBody(op.Query, d.opts.BatchSize)
		resp, err = d.client.Post(d.opts.BaseURL+"/search/batch", "application/json", bytes.NewReader(body))
	} else {
		resp, err = d.client.Get(d.opts.BaseURL + "/search?q=" + url.QueryEscape(op.Query))
	}
	elapsed := time.Since(start)
	deadline := d.opts.Deadline
	if batch && d.opts.BatchDeadline > 0 {
		deadline = d.opts.BatchDeadline
	}
	c := &d.res.Counts
	if err != nil {
		// No response: a timeout at the hang cap means the server sat on
		// an admitted request instead of answering or shedding — the one
		// failure mode the SLO bans outright.
		if elapsed >= d.client.Timeout-50*time.Millisecond {
			atomic.AddUint64(&c.Hang, 1)
		} else {
			atomic.AddUint64(&c.NetErr, 1)
		}
		return 0, 0
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		d.res.Lat.Record(elapsed)
		if deadline > 0 && elapsed > deadline+deadlineGrace {
			atomic.AddUint64(&c.LateOK, 1)
		} else {
			atomic.AddUint64(&c.OK, 1)
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		d.res.ShedLat.Record(elapsed)
		atomic.AddUint64(&c.Shed, 1)
		retryAfter, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
	case resp.StatusCode == http.StatusNotFound:
		atomic.AddUint64(&c.NotFound, 1)
	case resp.StatusCode >= 500:
		atomic.AddUint64(&c.ServerErr, 1)
	default:
		atomic.AddUint64(&c.Rejected, 1)
	}
	return resp.StatusCode, retryAfter
}

// joinInts renders a comma-separated ID list for /recommend?items=.
func joinInts(ids []int) string {
	var b []byte
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// batchBody builds a /search/batch body repeating variations of the query.
func batchBody(query string, n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"queries":[`)
	// Queries come from concept names (plain ASCII words), so
	// strconv.Quote's escaping rules match JSON's for everything the
	// corpus can produce.
	enc := strconv.Quote(query)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(enc)
	}
	b.WriteString(`],"max_items":12}`)
	return b.Bytes()
}

// Zipf and uniform corpora share a seeded source; expose a tiny helper so
// cocoload can derive distinct per-phase seeds deterministically.
func PhaseSeed(base int64, phase int) int64 {
	r := rand.New(rand.NewSource(base))
	var s int64
	for i := 0; i <= phase; i++ {
		s = r.Int63()
	}
	return s | 1
}
