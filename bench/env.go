package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"alicoco"
	"alicoco/internal/serve"
)

const (
	netShards = 4 // partition the served catalog is committed with
	retainGen = 4 // generations the catalog keeps while churn republishes
)

// setupTimes splits one set-up into the calls it made. Total runs from
// the process start (or the caller's start time) to the first 200 from
// /readyz.
type setupTimes struct {
	Build float64 `json:"build_s"`
	Save  float64 `json:"save_s"`
	Load  float64 `json:"load_s"`
	Serve float64 `json:"serve_s"`
	Total float64 `json:"total_s"`
	// RefRPS is the reference rate measured right after the set-up, which
	// setup_s is scaled by (ref.go).
	RefRPS float64 `json:"ref_rps"`
}

// env is one served catalog: the live net it was built from, the facade
// loaded from the catalog, and the production handler stack behind a
// loopback listener, with a keep-alive client sized to the closed loop.
type env struct {
	built  *alicoco.CoCo // live net: corpus source and churn publisher
	coco   *alicoco.CoCo // serving facade loaded from dir
	sv     *serve.Server
	dir    string       // snapshot catalog
	base   string       // http://127.0.0.1:port
	client *http.Client // the closed loop's connections
	admin  *http.Client // one connection for probes, scrapes and reloads
	conns  int          // closed-loop clients, one connection each
	hs     *http.Server
	served sync.WaitGroup

	refAddr string     // the reference process timings are scaled by (ref.go)
	quiet   sync.Mutex // held by a publish and by a reference measurement

	heapBase uint64 // HeapAlloc after GC, just before LoadShardedFrozen
	setup    setupTimes
	corpus   *corpus
}

// setUp builds alicoco.Default() with netShards shards, commits them to a
// catalog under tmpRoot, loads the catalog with LoadShardedFrozen and
// serves it on loopback until /readyz answers 200. started is when the
// set-up began from the caller's point of view. The reference process at
// refAddr is measured right after.
func setUp(tmpRoot string, started time.Time, conns int, refAddr string) (*env, error) {
	e := &env{refAddr: refAddr}
	t := time.Now()
	built, err := alicoco.BuildSharded(alicoco.Default(), netShards)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	e.built = built
	e.setup.Build = since(&t)

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	if e.dir, err = os.MkdirTemp(tmpRoot, "catalog-"); err != nil {
		return nil, err
	}
	if _, err := built.SaveShards(e.dir, netShards); err != nil {
		e.close()
		return nil, fmt.Errorf("save shards: %w", err)
	}
	e.setup.Save = since(&t)

	e.heapBase = gcHeap()
	t = time.Now()
	if e.coco, err = alicoco.LoadShardedFrozen(e.dir); err != nil {
		e.close()
		return nil, fmt.Errorf("load shards: %w", err)
	}
	e.setup.Load = since(&t)

	e.sv = serve.New(e.coco, serve.Config{SnapshotDir: e.dir})
	if err := e.listen(e.sv.Handler(), conns); err != nil {
		e.close()
		return nil, err
	}
	e.setup.Serve = since(&t)
	e.setup.Total = time.Since(started).Seconds()

	if e.corpus, err = corpusFrom(built); err != nil {
		e.close()
		return nil, err
	}
	if e.setup.RefRPS, err = e.refRate(refProbe); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// listen serves h on a loopback listener and waits for /readyz.
func (e *env) listen(h http.Handler, conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.base = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: h}
	e.served.Add(1)
	go func() {
		defer e.served.Done()
		_ = e.hs.Serve(ln) // returns http.ErrServerClosed from close
	}()
	e.conns = conns
	e.client = newClient(conns)
	e.admin = newClient(1)
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, err := e.adminGet("/readyz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after 30s: status %d, %v", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// close stops the server, waits for it, and removes the catalog. A second
// call does nothing.
func (e *env) close() {
	if e.hs != nil {
		_ = e.hs.Close()
		e.served.Wait()
		e.hs = nil
	}
	for _, c := range []*http.Client{e.client, e.admin} {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
		e.dir = ""
	}
}

// do sends o and returns the response status; the body goes to buf when
// it is non-nil and is discarded otherwise.
func (e *env) do(o op, buf *bytes.Buffer) (int, error) {
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(o.method(), e.base+o.path, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return send(e.client, req, buf)
}

// adminGet and adminPost use the admin connection, never one of the
// closed loop's.
func (e *env) adminGet(path string, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest("GET", e.base+path, nil)
	if err != nil {
		return 0, err
	}
	return send(e.admin, req, buf)
}

func (e *env) adminPost(path string) (int, error) {
	req, err := http.NewRequest("POST", e.base+path, nil)
	if err != nil {
		return 0, err
	}
	return send(e.admin, req, nil)
}

func send(client *http.Client, req *http.Request, buf *bytes.Buffer) (int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if buf != nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, err
}

// loadFresh loads an independent facade from the catalog: its caches are
// empty and it shares nothing with the served one.
func (e *env) loadFresh() (*alicoco.CoCo, error) {
	c, err := alicoco.LoadShardedFrozen(e.dir)
	if err != nil {
		return nil, fmt.Errorf("load fresh facade: %w", err)
	}
	return c, nil
}

// gcHeap collects twice, so sync.Pool victims are gone too, and returns
// HeapAlloc.
func gcHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// since returns the seconds elapsed since *t and resets *t to now.
func since(t *time.Time) float64 {
	now := time.Now()
	d := now.Sub(*t).Seconds()
	*t = now
	return d
}
