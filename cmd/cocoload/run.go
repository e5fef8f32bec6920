package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"alicoco"
	"alicoco/internal/faultfs"
	"alicoco/internal/loadgen"
	"alicoco/internal/obs"
	"alicoco/internal/serve"
)

type config struct {
	addr      string
	inprocess bool
	scale     string
	shards    int

	rate      float64
	duration  time.Duration
	deadline  time.Duration
	mix       string
	batchFrac float64

	// Embedded-server gate sizing (-inprocess only); 0 keeps the serve
	// defaults, small values force overload at modest rates.
	maxInflight int
	queueDepth  int

	chaos          bool
	floor          float64
	slowShardDelay time.Duration
	churnEvery     time.Duration

	out  string
	seed int64
}

func parseFlags(args []string) (config, error) {
	var cfg config
	fs := flag.NewFlagSet("cocoload", flag.ContinueOnError)
	fs.StringVar(&cfg.addr, "addr", "http://127.0.0.1:8080", "base URL of a running cocoserve")
	fs.BoolVar(&cfg.inprocess, "inprocess", false,
		"build a sharded net and embed the production server stack instead of dialing -addr")
	fs.StringVar(&cfg.scale, "scale", "small", "net build scale: small or default")
	fs.IntVar(&cfg.shards, "shards", 4, "shard count for -inprocess builds")
	fs.Float64Var(&cfg.rate, "rate", 600, "offered load in requests/second (open loop)")
	fs.DurationVar(&cfg.duration, "duration", 5*time.Second, "length of each phase")
	fs.DurationVar(&cfg.deadline, "deadline", 500*time.Millisecond,
		"single-query deadline the SLOs are judged against (also configures the -inprocess server)")
	fs.StringVar(&cfg.mix, "mix", "zipf", "request mix: uniform, zipf, adversarial, or all")
	fs.Float64Var(&cfg.batchFrac, "batch-fraction", 0.05, "fraction of search ops sent as POST /search/batch")
	fs.IntVar(&cfg.maxInflight, "max-inflight", 0,
		"embedded server's engine slots (0 = serve default; small values force overload)")
	fs.IntVar(&cfg.queueDepth, "queue-depth", 0, "embedded server's admission queue depth (0 = serve default)")
	fs.BoolVar(&cfg.chaos, "chaos", false,
		"after each clean phase, rerun it under reload churn + one slow shard + corrupt snapshot reads and assert the SLOs held (requires -inprocess)")
	fs.Float64Var(&cfg.floor, "floor", 0.5, "fraction of baseline goodput a chaos phase must retain")
	fs.DurationVar(&cfg.slowShardDelay, "slow-shard-delay", time.Millisecond,
		"chaos: injected delay per scatter-gather boundary crossing of the slow shard")
	fs.DurationVar(&cfg.churnEvery, "churn-every", 100*time.Millisecond, "chaos: interval between reload requests")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report here (e.g. BENCH_serve.json)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base seed for the request mixes")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if cfg.chaos && !cfg.inprocess {
		return cfg, errors.New("-chaos requires -inprocess: fault injection points are process-global")
	}
	return cfg, nil
}

func scaleOpts(scale string) (alicoco.Options, error) {
	switch scale {
	case "small":
		return alicoco.Small(), nil
	case "default":
		return alicoco.Default(), nil
	default:
		return alicoco.Options{}, fmt.Errorf("unknown -scale %q (want small or default)", scale)
	}
}

// inproc is an embedded production server: the same handler stack
// cocoserve runs, serving a sharded snapshot catalog from a temp dir so
// /reload and shard force-reloads work exactly as in production.
type inproc struct {
	baseURL string
	snapDir string
	corpus  *loadgen.Corpus
	httpSrv *http.Server
}

func startInprocess(cfg config) (*inproc, error) {
	opts, err := scaleOpts(cfg.scale)
	if err != nil {
		return nil, err
	}
	built, err := alicoco.BuildSharded(opts, cfg.shards)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	// The corpus comes from the built net (which has the world model's
	// click log); the server serves the frozen snapshot of the same net.
	corpus, err := loadgen.CorpusFrom(built, 256)
	if err != nil {
		return nil, err
	}
	snapDir, err := os.MkdirTemp("", "cocoload-snap-")
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*inproc, error) {
		os.RemoveAll(snapDir)
		return nil, err
	}
	if _, err := built.SaveShards(snapDir, cfg.shards); err != nil {
		return fail(fmt.Errorf("save shards: %w", err))
	}
	coco, err := alicoco.LoadShardedFrozen(snapDir)
	if err != nil {
		return fail(fmt.Errorf("load shards: %w", err))
	}
	sv := serve.New(coco, serve.Config{
		Deadline:      cfg.deadline,
		BatchDeadline: 4 * cfg.deadline,
		MaxInflight:   cfg.maxInflight,
		QueueDepth:    cfg.queueDepth,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	hs := &http.Server{Handler: sv.Handler()}
	go hs.Serve(ln)
	return &inproc{
		baseURL: "http://" + ln.Addr().String(),
		snapDir: snapDir,
		corpus:  corpus,
		httpSrv: hs,
	}, nil
}

func (ip *inproc) shutdown() {
	ip.httpSrv.Close()
	os.RemoveAll(ip.snapDir)
}

// run executes every requested phase and returns the full report. main and
// the chaos SLO test share this path.
func run(cfg config) (*loadgen.Report, error) {
	mixes := []string{cfg.mix}
	if cfg.mix == "all" {
		mixes = loadgen.MixNames
	}
	baseURL := cfg.addr
	var corpus *loadgen.Corpus
	var ip *inproc
	if cfg.inprocess {
		var err error
		if ip, err = startInprocess(cfg); err != nil {
			return nil, err
		}
		defer ip.shutdown()
		baseURL, corpus = ip.baseURL, ip.corpus
	} else {
		// Remote server: builds are deterministic, so a local build at the
		// same scale yields the same concept names and click sessions.
		opts, err := scaleOpts(cfg.scale)
		if err != nil {
			return nil, err
		}
		built, err := alicoco.Build(opts)
		if err != nil {
			return nil, fmt.Errorf("build corpus net: %w", err)
		}
		if corpus, err = loadgen.CorpusFrom(built, 256); err != nil {
			return nil, err
		}
	}

	rep := &loadgen.Report{
		Tool:       "cocoload",
		Scale:      cfg.scale,
		Shards:     cfg.shards,
		DeadlineMS: float64(cfg.deadline.Microseconds()) / 1000,
		GoVersion:  runtime.Version(),
	}
	slo := loadgen.SLO{Deadline: cfg.deadline, GoodputFloor: cfg.floor}
	// In-process runs cross-check the server's /metrics histograms against
	// the client-observed ones after every phase — including chaos phases:
	// telemetry that goes wrong under reload churn is worse than none.
	var scraper *loadgen.Scraper
	if cfg.inprocess {
		scraper = &loadgen.Scraper{BaseURL: baseURL}
	}
	phaseIdx := 0
	newOpts := func(mix *loadgen.Mix) loadgen.Options {
		return loadgen.Options{
			BaseURL:       baseURL,
			Mix:           mix,
			Rate:          cfg.rate,
			Duration:      cfg.duration,
			Deadline:      cfg.deadline,
			BatchDeadline: 4 * cfg.deadline,
			BatchFraction: cfg.batchFrac,
			Seed:          loadgen.PhaseSeed(cfg.seed, phaseIdx),
		}
	}
	// checked brackets one phase with /metrics scrapes and runs the
	// server-vs-client histogram cross-check on the delta; scrape failures
	// and disagreements land in the report's violations, never a skip.
	checked := func(label string, exec func() (*loadgen.Result, error)) (*loadgen.Result, *loadgen.ServerObs, []string, error) {
		var before obs.HistSnapshot
		var viols []string
		scraped := false
		if scraper != nil {
			var err error
			if before, err = scraper.Scrape(); err != nil {
				viols = append(viols, fmt.Sprintf("%s: pre-phase /metrics scrape failed: %v", label, err))
			} else {
				scraped = true
			}
		}
		res, err := exec()
		if err != nil || !scraped {
			return res, nil, viols, err
		}
		// The server records a request after writing its response, so the
		// client can finish a phase a beat before the last observations
		// land in the histogram; let them settle before the closing scrape.
		time.Sleep(150 * time.Millisecond)
		after, err := scraper.Scrape()
		if err != nil {
			viols = append(viols, fmt.Sprintf("%s: post-phase /metrics scrape failed: %v", label, err))
			return res, nil, viols, nil
		}
		delta := after.Sub(&before)
		so, v := loadgen.CrossCheck(label, delta, res)
		return res, &so, append(viols, v...), nil
	}

	for _, name := range mixes {
		mix, err := loadgen.NewMix(name, corpus, loadgen.PhaseSeed(cfg.seed, phaseIdx))
		if err != nil {
			return nil, err
		}
		base, sobs, viols, err := checked(name, func() (*loadgen.Result, error) {
			return loadgen.Run(newOpts(mix))
		})
		if err != nil {
			return nil, err
		}
		phaseIdx++
		pr := loadgen.NewPhaseReport(base, cfg.rate, false)
		pr.Server = sobs
		rep.Phases = append(rep.Phases, pr)
		rep.Violations = append(rep.Violations, viols...)
		rep.Violations = append(rep.Violations, slo.Check(base)...)

		if !cfg.chaos {
			continue
		}
		mix2, err := loadgen.NewMix(name, corpus, loadgen.PhaseSeed(cfg.seed, phaseIdx))
		if err != nil {
			return nil, err
		}
		var notes map[string]any
		chaosRes, sobs2, viols2, err := checked(name+"+chaos", func() (*loadgen.Result, error) {
			r, n, cerr := runChaos(cfg, newOpts(mix2))
			notes = n
			return r, cerr
		})
		if err != nil {
			return nil, err
		}
		phaseIdx++
		chaosRes.Name = name + "+chaos" // disambiguate SLO messages
		pr = loadgen.NewPhaseReport(chaosRes, cfg.rate, true)
		pr.Mix = name
		pr.Server = sobs2
		pr.Notes = notes
		rep.Phases = append(rep.Phases, pr)
		rep.Violations = append(rep.Violations, viols2...)
		rep.Violations = append(rep.Violations, slo.Check(chaosRes)...)
		rep.Violations = append(rep.Violations, slo.CheckGoodput(base, chaosRes)...)
	}
	return rep, nil
}

// runChaos reruns a phase with every fault the serving layer claims to
// survive armed at once: the last shard slowed at every scatter-gather
// boundary crossing, one shard's snapshot file returning corrupt bytes (so
// its force-reloads fail mid-run), and an admin goroutine churning full
// and per-shard reloads throughout.
func runChaos(cfg config, opts loadgen.Options) (*loadgen.Result, map[string]any, error) {
	slowShard := cfg.shards - 1
	restoreSlow := faultfs.InjectQuery(faultfs.QueryFault{Shard: slowShard, Delay: cfg.slowShardDelay})
	defer restoreSlow()
	corruptShard := 1 % cfg.shards
	restoreCorrupt := faultfs.Inject(faultfs.Fault{
		PathContains: fmt.Sprintf("shard-%04d", corruptShard),
		CorruptAt:    256,
	})
	defer restoreCorrupt()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reloads, reloadErrs atomic.Uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(cfg.churnEvery):
			}
			url := opts.BaseURL + "/reload"
			if i%2 == 1 {
				url = fmt.Sprintf("%s?shard=%d", url, (i/2)%cfg.shards)
			}
			resp, err := client.Post(url, "", nil)
			if err != nil {
				reloadErrs.Add(1)
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			// Reloads of the corrupt shard *should* fail (500 from the admin
			// endpoint, served snapshot untouched); they are the drill, not a
			// query-path SLO violation.
			if resp.StatusCode == http.StatusOK {
				reloads.Add(1)
			} else {
				reloadErrs.Add(1)
			}
		}
	}()
	res, err := loadgen.Run(opts)
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}
	notes := map[string]any{
		"reloads_ok":       reloads.Load(),
		"reloads_failed":   reloadErrs.Load(),
		"slow_shard":       slowShard,
		"slow_shard_delay": cfg.slowShardDelay.String(),
		"corrupt_shard":    corruptShard,
		"churn_every":      cfg.churnEvery.String(),
	}
	return res, notes, nil
}
