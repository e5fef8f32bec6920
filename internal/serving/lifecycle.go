// The generation lifecycle of the store serving was loaded from, owned by
// the core: startup, reloads, rollbacks and scrubs, with the state they
// share — the skiplist of bad generations, per-shard failure counts, the
// reload breaker and its backoff, the last rollback and the last scrub.
// Every operation runs under the core's offline lock and reads the catalog
// once, and each publishes a Lifecycle record when it is done, which
// readers (cocoserve's /stats and /metrics) load without a lock. The store
// is only read: nothing here sweeps or drops a generation.
package serving

import (
	"errors"
	"fmt"
	"log"
	"maps"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"alicoco/internal/resilience"
	"alicoco/internal/snapstore"
)

// The lifecycle policy at its production values: a refresh tick retries a
// failed reload reloadRetries times, with jittered exponential backoff from
// backoffBase to backoffMax, and breakerThreshold consecutive whole-net
// failures open the breaker for breakerCooldown and roll serving back.
const (
	reloadRetries    = 3
	backoffBase      = 200 * time.Millisecond
	backoffMax       = 5 * time.Second
	breakerThreshold = 5
	breakerCooldown  = 30 * time.Second
)

// ErrNotCommitted is what RollbackTo returns, wrapped, when the catalog
// lists no generation to roll back to; nothing was loaded.
var ErrNotCommitted = errors.New("no such committed generation")

// lifecycle is the core's lifecycle state. New sets the policy (validate,
// breaker, backoff) and only this package's tests change it, before the
// core serves. rec is guarded by the core's offline lock and published
// after every operation.
type lifecycle struct {
	validate func(*Core) error // post-swap check of every generation the lifecycle publishes; nil skips it
	breaker  *resilience.Breaker
	backoff  *resilience.Backoff

	rec       Lifecycle
	published atomic.Pointer[Lifecycle]
}

// Lifecycle is the record of the generation lifecycle, as the last
// operation left it: why a generation serves, and the counts behind
// cocoserve's lifecycle series. Readers share its maps: read them only.
type Lifecycle struct {
	Bad          map[uint64]bool // skiplisted generations: reloads hold on them
	ShardFails   map[int]int     // consecutive reload failures per shard
	LastRollback *Rollback
	LastScrub    *snapstore.ScrubReport

	ReloadFailures, ReloadRetries, Rollbacks, ValidationFailures              uint64
	ScrubPasses, ScrubRepairs, ScrubQuarantines, ScrubUnrepaired, ScrubErrors uint64

	// The breaker's and the backoff's state when the record is read.
	Breaker        resilience.BreakerStats
	BackoffAttempt int
}

// Rollback describes a completed rollback.
type Rollback struct {
	From   uint64 `json:"from_gen"`
	To     uint64 `json:"to_gen"`
	At     string `json:"at"` // RFC 3339
	Reason string `json:"reason"`
}

// Lifecycle returns the record the last lifecycle operation published,
// with the breaker's and the backoff's current state. It takes no lock a
// load holds.
func (c *Core) Lifecycle() Lifecycle {
	var lc Lifecycle
	if p := c.published.Load(); p != nil {
		lc = *p
	}
	lc.Breaker = c.breaker.Stats()
	if c.backoff != nil {
		lc.BackoffAttempt = c.backoff.Attempt()
	}
	return lc
}

// publishLifecycle publishes a copy of the working record. Callers hold
// c.offline.
func (c *Core) publishLifecycle() {
	r := c.rec
	r.Bad, r.ShardFails = maps.Clone(r.Bad), maps.Clone(r.ShardFails)
	c.published.Store(&r)
}

// StoreInfo is the lifecycle as cocoserve's /stats "snapstore" section
// shows it: the catalog of the store serving was loaded from, each
// generation marked serving or bad, and the last rollback and scrub.
type StoreInfo struct {
	Root         string                 `json:"root"`
	Generations  []GenInfo              `json:"generations,omitempty"`
	LastRollback *Rollback              `json:"last_rollback,omitempty"`
	LastScrub    *snapstore.ScrubReport `json:"last_scrub,omitempty"`
}

// GenInfo is one committed generation in a StoreInfo.
type GenInfo struct {
	ID               uint64 `json:"id"`
	CreatedAt        string `json:"created_at"`
	ManifestChecksum string `json:"manifest_checksum"`
	Serving          bool   `json:"serving,omitempty"`
	Bad              bool   `json:"bad,omitempty"` // skiplisted: failed to load or validate, or rolled back from
}

// StoreInfo lists the catalog of the store serving was loaded from,
// marked with the published record. It reads the catalog and takes no
// lock a load holds.
func (c *Core) StoreInfo() StoreInfo {
	s, lc := c.serving.Load(), c.Lifecycle()
	out := StoreInfo{Root: s.root, LastRollback: lc.LastRollback, LastScrub: lc.LastScrub}
	if s.root == "" {
		return out
	}
	gens, _ := snapstore.ListGenerations(s.root)
	for _, g := range gens {
		out.Generations = append(out.Generations, GenInfo{
			ID:               g.ID,
			CreatedAt:        g.CreatedAt.UTC().Format(time.RFC3339),
			ManifestChecksum: fmt.Sprintf("%08x", g.ManifestChecksum),
			Serving:          g.ID == s.gen.ID,
			Bad:              lc.Bad[g.ID],
		})
	}
	return out
}

// validServing is the post-swap check of production: the serving state
// holds a net.
func validServing(c *Core) error {
	if c.ServingInfo().Nodes <= 0 {
		return errors.New("serving state has no nodes")
	}
	return nil
}

// start publishes the newest generation of the store at dir that loads
// and validates (see Load). The Core has not escaped yet.
func (c *Core) start(dir string) error {
	defer c.publishLifecycle()
	gens, err := snapstore.Committed(dir)
	if err == nil {
		_, err = c.walk(dir, gens, math.MaxUint64, "shards")
	}
	return err
}

// walk publishes the newest generation of gens older than below that is
// not skiplisted and that loads and validates, and marks bad each one it
// tries that does not. It returns the generation published, or else the
// newest one's failure. Startup and every automatic rollback walk.
func (c *Core) walk(root string, gens []snapstore.Gen, below uint64, source string) (snapstore.Gen, error) {
	var first error
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g.ID >= below || c.rec.Bad[g.ID] {
			continue
		}
		_, err := c.load(root, g, nil, source, false, -1)
		if err == nil && c.validate != nil {
			err = c.validate(c)
		}
		if err == nil {
			return g, nil
		}
		log.Printf("gen %d does not load or validate (%v); marked bad", g.ID, err)
		c.markBad(g.ID)
		if first == nil {
			first = fmt.Errorf("gen %d: %w", g.ID, err)
		}
	}
	if first == nil {
		first = fmt.Errorf("no clean generation older than %d", below)
	}
	return snapstore.Gen{}, first
}

// rollbackFrom marks generation bad, 0 naming the newest of gens, and
// walks serving down the catalog from it: the rollback of a breaker trip
// or a failed validation.
func (c *Core) rollbackFrom(root string, gens []snapstore.Gen, bad uint64, reason string) error {
	if len(gens) == 0 {
		return errors.New("no committed generations to roll back in")
	}
	if bad == 0 {
		bad = gens[len(gens)-1].ID
	}
	c.markBad(bad)
	from := c.serving.Load().gen.ID
	g, err := c.walk(root, gens, bad, "rollback")
	if err == nil {
		c.noteRollback(from, g.ID, reason)
	}
	return err
}

func (c *Core) markBad(gen uint64) {
	if c.rec.Bad == nil {
		c.rec.Bad = make(map[uint64]bool)
	}
	c.rec.Bad[gen] = true
}

// noteRollback records a completed rollback; the generation serving now
// is vouched for.
func (c *Core) noteRollback(from, to uint64, reason string) {
	delete(c.rec.Bad, to)
	c.rec.Rollbacks++
	c.rec.LastRollback = &Rollback{From: from, To: to, At: time.Now().UTC().Format(time.RFC3339), Reason: reason}
	log.Printf("rolled back serving: gen %d -> gen %d (%s)", from, to, reason)
}

// holdOn reports why a reload onto newest, the newest committed
// generation, holds, or "" when it goes on: a skiplisted newest generation
// holds reloads, and one newer than every skiplisted generation clears the
// skiplist — the publisher shipped a fix.
func (c *Core) holdOn(newest uint64) string {
	var maxBad uint64
	for id := range c.rec.Bad {
		maxBad = max(maxBad, id)
	}
	if newest > maxBad {
		clear(c.rec.Bad)
		return ""
	}
	if c.rec.Bad[newest] {
		return fmt.Sprintf("newest gen %d marked bad; serving gen %d", newest, c.serving.Load().gen.ID)
	}
	return ""
}

// Reload reloads the newest generation of the store serving was loaded
// from, under the lifecycle policy: the whole partition, reading only the
// shards that changed, or with shard >= 0 that shard alone. While the
// newest generation is skiplisted the reload holds, and reports why as its
// source. A generation it publishes must pass validation, or it is marked
// bad and serving walks down the catalog to the newest generation that
// loads and validates. A failure counts against the shard whose file
// failed; whole-net failures feed the breaker, and the one that opens it
// marks the newest generation bad and walks down too. Serving keeps its
// last good state through any number of failures. The source says what
// the reload did.
func (c *Core) Reload(shard int) (source string, err error) { return c.reload(shard, false) }

func (c *Core) reload(shard int, retry bool) (source string, err error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	defer c.publishLifecycle()
	if retry {
		c.rec.ReloadRetries++
	}
	root := c.serving.Load().root
	var gens []snapstore.Gen
	if root == "" {
		err = errors.New("alicoco: reload: serving is not backed by a snapshot store")
	} else if gens, err = snapstore.Committed(root); err == nil {
		newest := gens[len(gens)-1]
		if hold := c.holdOn(newest.ID); hold != "" {
			return "held: " + hold, nil
		}
		before := c.generation.Load()
		var n int
		n, err = c.reloadGen(root, newest, shard)
		source = "shards:" + root + " (" + strconv.Itoa(n) + " reloaded)"
		if shard >= 0 {
			source = "shard:" + strconv.Itoa(shard)
		}
		if err == nil && c.validate != nil && c.generation.Load() != before {
			err = c.checkSwap(root, gens)
		}
	}
	if err == nil {
		c.breaker.Success()
		c.backoff.Reset()
		if shard >= 0 {
			delete(c.rec.ShardFails, shard)
		} else {
			clear(c.rec.ShardFails)
		}
		return source, nil
	}
	c.rec.ReloadFailures++
	var sle *snapstore.ShardLoadError
	if errors.As(err, &sle) {
		if c.rec.ShardFails == nil {
			c.rec.ShardFails = make(map[int]int)
		}
		c.rec.ShardFails[sle.Index]++
	}
	// Catalog-backed serving does not freeze on "last good in memory": the
	// whole-net failure that opens the breaker re-anchors serving on the
	// newest older generation that loads and validates.
	if shard < 0 && c.breaker.Failure() {
		if rerr := c.rollbackFrom(root, gens, 0, "reload breaker tripped: "+err.Error()); rerr != nil {
			log.Printf("auto-rollback: %v", rerr)
		}
	}
	return source, err
}

// checkSwap validates the state a reload just published. On failure it
// marks the generation bad and walks down the catalog from it; the error
// stays non-nil when the walk finds a clean generation, as the reload did
// not stick.
func (c *Core) checkSwap(root string, gens []snapstore.Gen) error {
	verr := c.validate(c)
	if verr == nil {
		return nil
	}
	c.rec.ValidationFailures++
	if err := c.rollbackFrom(root, gens, c.serving.Load().gen.ID, "post-swap validation failed: "+verr.Error()); err != nil {
		return fmt.Errorf("post-swap validation failed (%v) and rollback failed: %w", verr, err)
	}
	return fmt.Errorf("post-swap validation failed (rolled back to gen %d): %w", c.serving.Load().gen.ID, verr)
}

// RollbackTo republishes an earlier committed generation of the store
// serving was loaded from: gen, or with 0 the newest generation older than
// the one serving. A target the catalog does not list is ErrNotCommitted,
// and nothing loads; a listed one is fully loaded and verified, then
// swapped in atomically — the recovery path for a generation that loads
// clean but misbehaves once live. Every newer generation is marked bad, so
// reloads hold at this choice until a newer commit lands. It returns the
// generation published.
func (c *Core) RollbackTo(gen uint64) (snapstore.Gen, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	defer c.publishLifecycle()
	prev := c.serving.Load()
	if prev.root == "" {
		return snapstore.Gen{}, errors.New("alicoco: rollback: serving is not backed by a snapshot store")
	}
	gens, err := snapstore.Committed(prev.root)
	if err != nil {
		return snapstore.Gen{}, err
	}
	var target snapstore.Gen
	for _, g := range gens {
		if g.ID == gen || (gen == 0 && g.ID < prev.gen.ID) {
			target = g
		}
	}
	switch {
	case target.ID == 0 && gen != 0:
		return target, fmt.Errorf("alicoco: rollback: generation %d: %w", gen, ErrNotCommitted)
	case target.ID == 0:
		return target, fmt.Errorf("alicoco: rollback: older than gen %d: %w", prev.gen.ID, ErrNotCommitted)
	}
	if _, err := c.load(prev.root, target, nil, "rollback", false, -1); err != nil {
		return snapstore.Gen{}, err
	}
	for _, g := range gens {
		if g.ID > target.ID {
			c.markBad(g.ID)
		}
	}
	c.noteRollback(prev.gen.ID, target.ID, "operator rollback")
	return target, nil
}

// ScrubOnce runs one integrity pass over the generation directory serving
// was loaded from: every file is re-hashed against the on-disk manifest
// (itself verified against the served catalog entry), mismatches are
// quarantined, and each quarantined file is repaired from the newest clean
// source — another catalog generation with matching content first, the
// served in-memory shard or item table second. Repair touches only the
// disk copy; serving reads the in-memory shards throughout, so traffic
// keeps answering byte-identically and warm cache entries survive. The
// pass is counted, and its report kept, in the Lifecycle record.
func (c *Core) ScrubOnce() (*snapstore.ScrubReport, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	defer c.publishLifecycle()
	s := c.serving.Load()
	var rep *snapstore.ScrubReport
	var err error
	switch {
	case c.closed:
		err = errClosed
	case s.root == "":
		err = errors.New("alicoco: scrub: serving is not backed by a snapshot store")
	default:
		rep, err = snapstore.ScrubGen(s.root, s.gen, s.shards.Shards(), s.meta)
	}
	if err != nil {
		c.rec.ScrubErrors++
		return nil, err
	}
	c.rec.ScrubPasses++
	c.rec.ScrubRepairs += uint64(len(rep.Repaired))
	c.rec.ScrubQuarantines += uint64(len(rep.Quarantined))
	c.rec.ScrubUnrepaired += uint64(len(rep.Unrepaired))
	c.rec.LastScrub = rep
	return rep, nil
}

// RefreshLoop reloads every interval until done closes. A failed reload
// is retried with jittered exponential backoff, up to reloadRetries times
// per tick; while the breaker is open, attempts are skipped instead of
// hammering a file that keeps failing. Closing done ends a backoff wait
// too.
func (c *Core) RefreshLoop(interval time.Duration, done <-chan struct{}) {
	every(interval, done, func() {
		for attempt := 0; attempt <= reloadRetries; attempt++ {
			if (attempt > 0 && !wait(c.backoff.Next(), done)) || !c.breaker.Allow() {
				return
			}
			src, err := c.reload(-1, attempt > 0)
			if err == nil {
				info := c.ServingInfo()
				log.Printf("periodic reload from %s: %d nodes, %d edges", src, info.Nodes, info.Edges)
				return
			}
			log.Printf("periodic reload, attempt %d: %v", attempt+1, err)
		}
	})
}

// ScrubLoop runs ScrubOnce every interval until done closes, logging what
// a pass finds.
func (c *Core) ScrubLoop(interval time.Duration, done <-chan struct{}) {
	every(interval, done, func() {
		rep, err := c.ScrubOnce()
		switch {
		case err != nil:
			log.Printf("scrub: %v", err)
		case !rep.Clean():
			log.Printf("scrub: gen %d: %d mismatches, %d quarantined, %d repaired, %d unrepaired",
				rep.Gen, len(rep.Mismatches), len(rep.Quarantined), len(rep.Repaired), len(rep.Unrepaired))
		}
	})
}

// every runs fn on a ticker of interval until done closes.
func every(interval time.Duration, done <-chan struct{}, fn func()) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			fn()
		}
	}
}

// wait sleeps for d and reports true, or reports false once done closes.
func wait(d time.Duration, done <-chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return false
	case <-t.C:
		return true
	}
}
