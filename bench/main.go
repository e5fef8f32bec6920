// Command bench measures the alicoco serving stack end to end and layer by
// layer, over four traffic mixes (hot, cold, batch, churn). Every workload
// runs in a fresh child process that builds the net, commits it to a
// snapshot catalog, loads and serves it on loopback, and drives it with a
// closed loop of one client per CPU. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload hot|cold|batch|churn] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh spread bench/out/result-*.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every answer matched and no operation failed.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// processStart stands in for the process start time when no parent passed
// its spawn time.
var processStart = time.Now()

type config struct {
	workload string // "" runs every workload
	seed     int64
	window   time.Duration
	warmup   time.Duration
	trace    bool
	outDir   string // trace files and result records
	tmpDir   string // snapshot catalogs
	conns    int    // closed-loop clients, one connection each
	refAddr  string // the reference process (ref.go)

	setups        int           // set-ups timed per run, for setup_s
	idlePublishes int           // publishes timed outside churn
	idleRef       time.Duration // reference measured before each of those
	churnPause    time.Duration // pause between churn publishes
	checkOps      int           // ops the answer check replays
	pass          passSizes     // traced layer passes
	childTimeout  time.Duration
}

func defaultConfig() config {
	return config{
		seed:          1,
		window:        12 * time.Second,
		warmup:        3 * time.Second,
		outDir:        filepath.Join("bench", "out"),
		tmpDir:        filepath.Join(".bench_build", "tmp"),
		conns:         runtime.NumCPU(),
		setups:        11,
		idlePublishes: 10,
		idleRef:       100 * time.Millisecond,
		churnPause:    150 * time.Millisecond,
		checkOps:      512,
		pass:          passSizes{warmOps: 2048, maxOps: 20000},
		childTimeout:  170 * time.Second,
	}
}

// traceFlag takes "0" or "1" as a separate argument ("-trace 1"), which a
// boolean flag would not.
type traceFlag struct{ on *bool }

func (f traceFlag) String() string {
	if f.on != nil && *f.on {
		return "1"
	}
	return "0"
}

func (f traceFlag) Set(s string) error {
	v, err := strconv.ParseBool(s)
	if err != nil {
		return fmt.Errorf("want 0 or 1")
	}
	*f.on = v
	return nil
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "spread" {
		return spreadMain(args[1:], os.Stdout)
	}
	cfg := defaultConfig()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: all)")
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the op streams")
	seconds := fs.Int("seconds", int(cfg.window/time.Second), "length of the measured window, in seconds")
	fs.Var(traceFlag{&cfg.trace}, "trace", "1 runs the traced passes and reports the per-layer metrics")
	fs.StringVar(&cfg.outDir, "out", cfg.outDir, "directory for result records and trace files")
	fs.StringVar(&cfg.tmpDir, "tmp", cfg.tmpDir, "directory for the snapshot catalogs")
	role := fs.String("role", "", "internal: workload or ref, for the child processes")
	fs.StringVar(&cfg.refAddr, "ref", "", "internal: address of the reference process")
	spawnNS := fs.Int64("spawn-ns", 0, "internal: when the parent started this child (Unix ns)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be at least 1")
		return 2
	}
	cfg.window = time.Duration(*seconds) * time.Second
	cfg.pass.maxDur = cfg.window / 8
	if cfg.workload != "" {
		if err := checkWorkload(cfg.workload); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	started := processStart
	if *spawnNS != 0 {
		started = time.Unix(0, *spawnNS)
	}
	switch *role {
	case "ref":
		return childRef(cfg.conns)
	case "workload":
		return childWorkload(cfg, started)
	case "":
		return parent(cfg)
	}
	fmt.Fprintf(os.Stderr, "bench: unknown -role %q\n", *role)
	return 2
}

func childWorkload(cfg config, started time.Time) int {
	rec, err := runWorkload(cfg, started)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", cfg.workload, err)
		return 1
	}
	return printJSON(os.Stdout, rec)
}

// parent starts the reference process, then runs each workload in its
// own child process.
func parent(cfg config) int {
	names := workloadNames
	if cfg.workload != "" {
		names = []string{cfg.workload}
	}
	ref, err := startRef(cfg.conns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer ref.stop()
	cfg.refAddr = ref.addr
	exit := 0
	for _, w := range names {
		wcfg := cfg
		wcfg.workload = w
		var rec record
		if err := spawn(wcfg, &rec); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			return 1
		}
		if path, err := writeRecord(cfg.outDir, &rec); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write record:", err)
		} else {
			fmt.Fprintf(os.Stderr, "record: %s\n", path)
		}
		summarize(os.Stderr, &rec)
		if len(names) > 1 {
			fmt.Printf("== %s\n", w)
		}
		if printJSON(os.Stdout, result(&rec)) != 0 || !rec.Correct {
			exit = 1
		}
	}
	return exit
}

// spawn re-executes this binary as the workload child and decodes the
// record its last line of output holds into out. The child's standard
// error passes through.
func spawn(cfg config, out *record) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.childTimeout)
	defer cancel()
	args := []string{
		"-role", "workload",
		"-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.window / time.Second)),
		"-trace", traceFlag{&cfg.trace}.String(),
		"-out", cfg.outDir,
		"-tmp", cfg.tmpDir,
		"-ref", cfg.refAddr,
	}
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, append(args, "-spawn-ns", strconv.FormatInt(time.Now().UnixNano(), 10))...)
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("workload child: %w", err)
	}
	line := lastLine(stdout.Bytes())
	if err := json.Unmarshal(line, out); err != nil {
		return fmt.Errorf("workload child: bad output %.200q: %w", line, err)
	}
	return nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// record is everything one workload run measured, as written to the
// result file the spread tool reads.
type record struct {
	Workload      string             `json:"workload"`
	Seed          int64              `json:"seed"`
	Trace         bool               `json:"trace"`
	Host          hostFacts          `json:"host"`
	WarmupS       float64            `json:"warmup_s"`
	WindowS       float64            `json:"window_s"`
	Correct       bool               `json:"correct"`
	Attempted     int64              `json:"attempted"`
	Failed        int64              `json:"failed"`
	Mismatches    int                `json:"mismatches"`
	AnswersDigest string             `json:"answers_digest"`
	Setup         []setupTimes       `json:"setup"`
	Publish       []publishTimes     `json:"publish"`
	Values        map[string]float64 `json:"values"`
	Slices        []sliceRecord      `json:"slices"` // the window's slices, unscaled
	TraceFile     string             `json:"trace_file,omitempty"`
}

// sliceRecord is one slice of the window as the record keeps it, for
// looking at how a run's speed moved.
type sliceRecord struct {
	OpsPerSec float64 `json:"ops_per_s"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	RefRPS    float64 `json:"ref_rps"`
}

// runWorkload is one workload in one process: set up, optional traced
// layer passes, warm-up, the measured window (and with tracing the traced
// window), then the answer check, the publish timings and the further
// set-ups setup_s takes the median of.
func runWorkload(cfg config, started time.Time) (*record, error) {
	rec := &record{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Host:     currentHost(cfg.conns),
		WarmupS:  cfg.warmup.Seconds(),
		WindowS:  cfg.window.Seconds(),
		Values:   map[string]float64{},
	}
	e, err := setUp(cfg.tmpDir, started, cfg.conns, cfg.refAddr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	rec.Setup = []setupTimes{e.setup}
	g, err := newGenerator(cfg.workload, cfg.seed, e.corpus)
	if err != nil {
		return nil, err
	}

	tr := &tracer{epoch: time.Now()}
	var passes map[string]*pass
	if cfg.trace {
		// Before any churn, so every pass loads the catalog as committed.
		if passes, err = e.layerPasses(g, tr, cfg.pass); err != nil {
			return nil, err
		}
	}

	// The churn publisher runs from the warm-up to the end of the window,
	// and again through the traced window; only publishes started inside
	// the measured window count.
	var ch *churner
	startChurn := func() {
		if cfg.workload == "churn" {
			ch = e.startChurn(cfg.churnPause)
		}
	}
	stopChurn := func() ([]publishSample, error) {
		if ch == nil {
			return nil, nil
		}
		defer func() { ch = nil }()
		return ch.halt()
	}
	defer stopChurn()

	startChurn()
	var next atomic.Uint64
	if _, err := e.closedLoop(g, &next, cfg.warmup, nil, false); err != nil {
		return nil, err
	}
	slots, err := e.window(rec, g, &next, cfg)
	if err != nil {
		return nil, err
	}
	churned, err := stopChurn()
	if err != nil {
		return nil, err
	}
	for _, s := range churned {
		if scale, in := scaleAt(slots, s.start); in {
			rec.Publish = append(rec.Publish, s.times(scale))
		}
	}
	// The window's own measurements are garbage by now and no publish is
	// in flight, so the heap holds the serving state and its caches (plus
	// the live net, which the baseline holds too).
	rec.Values["heap_mb"] = (float64(gcHeap()) - float64(e.heapBase)) / 1e6

	if cfg.trace {
		startChurn()
		traced, err := e.closedLoop(g, &next, cfg.window/2, tr, true)
		if err != nil {
			return nil, err
		}
		if _, err := stopChurn(); err != nil {
			return nil, err
		}
		tput := rec.Values["throughput_ops"]
		rec.Values["trace.overhead_pct"] = 100 * ratio(tput-traced.opsPerSec(true), tput)
		passValues(rec.Values, passes)
		spans := map[string][]span{"closed_loop": traced.spans}
		for name, p := range passes {
			spans[name] = p.spans
		}
		if rec.TraceFile, err = writeTrace(cfg.outDir, cfg.workload, cfg.seed, spans); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}

	if rec.AnswersDigest, rec.Mismatches, err = e.checkAnswers(g, cfg.checkOps); err != nil {
		return nil, err
	}

	if len(rec.Publish) == 0 {
		// Outside churn (or in a window too short for a churn cycle), time
		// publishes on the otherwise idle server.
		if rec.Publish, err = e.idlePublishes(cfg.idlePublishes, cfg.idleRef); err != nil {
			return nil, err
		}
	}
	e.close()
	for len(rec.Setup) < cfg.setups {
		s, err := setUp(cfg.tmpDir, time.Now(), cfg.conns, cfg.refAddr)
		if err != nil {
			return nil, err
		}
		s.close()
		rec.Setup = append(rec.Setup, s.setup)
	}
	publishValues(rec.Values, rec.Publish)
	setupValues(rec.Values, rec.Setup)
	rec.Correct = rec.Mismatches == 0 && rec.Failed == 0
	return rec, nil
}

// window runs the measured closed loop and records its metrics, failures
// and the deltas of the counters around it. It returns the slices' start
// times and scales.
func (e *env) window(rec *record, g *generator, next *atomic.Uint64, cfg config) ([]slot, error) {
	before, err := e.counters()
	if err != nil {
		return nil, err
	}
	res, err := e.closedLoop(g, next, cfg.window, nil, true)
	if err != nil {
		return nil, err
	}
	after, err := e.counters()
	if err != nil {
		return nil, err
	}
	windowValues(rec.Values, res, before, after)
	rec.Attempted, rec.Failed = res.attempted, res.failed
	for _, sl := range res.slices {
		rec.Slices = append(rec.Slices, sliceRecord{
			OpsPerSec: float64(sl.ops) / sl.load.Seconds(),
			P50US:     sl.lat.quantileUS(0.5),
			P99US:     sl.lat.quantileUS(0.99),
			RefRPS:    sl.refRPS,
		})
	}
	for _, msg := range res.errs {
		fmt.Fprintln(os.Stderr, "failed:", msg)
	}
	return res.slots(), nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result selects the end-to-end metrics, or with tracing the per-layer
// ones. A metric the program no longer exports is left out, not faked.
func result(rec *record) resultLine {
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	out := resultLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]metricValue{}}
	for _, d := range defs {
		if v, ok := rec.Values[d.name]; ok {
			out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		} else {
			fmt.Fprintf(os.Stderr, "metric %s: absent\n", d.name)
		}
	}
	return out
}

func printJSON(w *os.File, v any) int {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: encode result:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", b)
	return 0
}

func writeRecord(dir string, rec *record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("result-%s-seed%d-trace%s.json", rec.Workload, rec.Seed, traceFlag{&rec.Trace}))
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize prints a run's host facts and metrics for a reader.
func summarize(w *os.File, rec *record) {
	h := rec.Host
	fmt.Fprintf(w, "workload %s  seed %d  trace %v  warm-up %gs  window %gs\n", rec.Workload, rec.Seed, rec.Trace, rec.WarmupS, rec.WindowS)
	fmt.Fprintf(w, "host: nproc %d  GOMAXPROCS %d  connections %d  %s  %s  rev %s\n",
		h.NumCPU, h.GOMAXPROCS, h.Conns, h.CPUModel, h.GoVersion, h.Revision)
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d  mismatches %d  answers_digest %s\n",
		rec.Correct, rec.Attempted, rec.Failed, rec.Mismatches, rec.AnswersDigest)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if v, ok := rec.Values[d.name]; ok {
				fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
			}
		}
	}
}

// hostFacts records what the numbers depend on besides the code.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Conns      int    `json:"connections"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"vcs_revision"`
}

func currentHost(conns int) hostFacts {
	h := hostFacts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Conns:      conns,
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Revision:   "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "+dirty"
			}
		}
	}
	return h
}
