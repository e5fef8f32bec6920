// Snapshot-store lifecycle wiring for cocoserve: -snapshot-dir names a
// generation catalog (a store written by `alicoco snapshot save` or
// SaveShards), and the server runs the crash-safe lifecycle on it —
// automatic rollback down the catalog when a new generation fails
// post-swap validation or trips the reload breaker, a POST /rollback
// operator endpoint, and a background integrity scrubber
// (-scrub-interval), each counted in metrics.go's registry. The server
// only reads the store: it lists the catalog (snapstore.ListGenerations,
// snapstore.Lookup) and never opens, sweeps or prunes it; the facade holds
// the generation it serves, so a publisher's commit keeps it. A server
// built live has no store and none of this.
package serve

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"alicoco"
	"alicoco/internal/snapstore"
)

// defaultValidate is the post-swap validation every newly published
// generation must pass before the server trusts it: the serving state must
// actually hold a net. Tests and deployments can tighten this via
// cfg.validate (golden-query checks, minimum node counts, ...).
func defaultValidate(c *alicoco.CoCo) error {
	if info := c.ServingInfo(); info.Nodes <= 0 {
		return errors.New("serving state has no nodes")
	}
	return nil
}

// markBadLocked adds a generation to the skiplist of generations the
// refresh loop must not re-publish (they loaded clean but failed
// validation, or failed to load during a rollback walk). Callers hold
// reloadMu.
func (s *server) markBadLocked(gen uint64) {
	if gen == 0 {
		return
	}
	if s.badGens == nil {
		s.badGens = make(map[uint64]bool)
	}
	s.badGens[gen] = true
}

// reloadGateLocked decides whether a periodic/manual reload should proceed
// given the bad-generation skiplist: a newest generation that is marked
// bad is held (the last rollback target keeps serving), and a fresh
// generation newer than every known-bad one supersedes the skiplist
// entirely — the publisher shipped a fix, so reloads resume. Callers hold
// reloadMu. The returned hold reason is non-empty when the reload should
// be skipped.
func (s *server) reloadGateLocked() (hold string) {
	if s.store == "" {
		return ""
	}
	g, err := snapstore.Lookup(s.store, nil)
	if err != nil {
		return ""
	}
	maxBad := uint64(0)
	for id := range s.badGens {
		if id > maxBad {
			maxBad = id
		}
	}
	if g.ID > maxBad && len(s.badGens) > 0 {
		clear(s.badGens)
		return ""
	}
	if s.badGens[g.ID] {
		return fmt.Sprintf("newest gen %d marked bad; serving gen %d", g.ID, s.coco.ServingInfo().CatalogGen)
	}
	return ""
}

// validateSwapLocked runs post-swap validation after a reload that
// published a new serving state; on failure it marks the generation bad
// and falls back down the catalog. Callers hold reloadMu. The returned
// error is non-nil whenever validation failed, even if the rollback that
// followed succeeded — the requested reload did not stick, and callers'
// failure bookkeeping should say so.
func (s *server) validateSwapLocked(beforeGen uint64) error {
	if s.cfg.validate == nil {
		return nil
	}
	info := s.coco.ServingInfo()
	if info.Generation == beforeGen {
		return nil // nothing newly published, nothing to validate
	}
	verr := s.cfg.validate(s.coco)
	if verr == nil {
		return nil
	}
	s.validationFailures.Inc()
	if s.store == "" || info.CatalogGen == 0 {
		return fmt.Errorf("post-swap validation failed (no catalog to roll back in): %w", verr)
	}
	s.markBadLocked(info.CatalogGen)
	if rerr := s.autoRollbackLocked(info.CatalogGen, "post-swap validation failed: "+verr.Error()); rerr != nil {
		return fmt.Errorf("post-swap validation failed (%v) and rollback failed: %w", verr, rerr)
	}
	return fmt.Errorf("post-swap validation failed (rolled back to gen %d): %w",
		s.coco.ServingInfo().CatalogGen, verr)
}

// autoRollbackLocked walks the catalog from the newest generation older
// than badGen down, skipping known-bad generations, and publishes the
// first one that loads and verifies clean. Callers hold reloadMu.
func (s *server) autoRollbackLocked(badGen uint64, reason string) error {
	if s.store == "" {
		return errors.New("no generation catalog to roll back in")
	}
	gens, err := snapstore.ListGenerations(s.store)
	if err != nil {
		return err
	}
	if badGen == 0 {
		if len(gens) == 0 {
			return errors.New("no committed generations to roll back in")
		}
		badGen = gens[len(gens)-1].ID
		s.markBadLocked(badGen)
	}
	from := s.coco.ServingInfo().CatalogGen
	for i := len(gens) - 1; i >= 0; i-- {
		g := gens[i]
		if g.ID >= badGen || s.badGens[g.ID] {
			continue
		}
		if _, err := s.coco.RollbackTo(g.ID); err != nil {
			log.Printf("rollback: gen %d failed to load (%v); marking bad and continuing down", g.ID, err)
			s.markBadLocked(g.ID)
			continue
		}
		// The rollback target must clear the same bar the failed
		// generation missed, or the walk keeps descending.
		if s.cfg.validate != nil {
			if verr := s.cfg.validate(s.coco); verr != nil {
				log.Printf("rollback: gen %d failed validation (%v); marking bad and continuing down", g.ID, verr)
				s.markBadLocked(g.ID)
				continue
			}
		}
		s.noteRollbackLocked(from, g.ID, reason)
		return nil
	}
	return fmt.Errorf("no clean generation older than %d to roll back to", badGen)
}

// noteRollbackLocked records a completed rollback for /stats. Callers
// hold reloadMu.
func (s *server) noteRollbackLocked(from, to uint64, reason string) {
	delete(s.badGens, to) // the generation serving now is vouched for
	s.rollbacks.Inc()
	s.lastRollback = &rollbackStat{
		From:   from,
		To:     to,
		At:     time.Now().UTC().Format(time.RFC3339),
		Reason: reason,
	}
	log.Printf("rolled back serving: gen %d -> gen %d (%s)", from, to, reason)
}

// handleRollback is POST /rollback: republish an earlier committed
// generation. An optional gen parameter names it; by default the newest
// generation older than the one serving is used. A target the catalog does
// not list answers 404 before anything is loaded; one that is listed but
// fails to load answers 500. Every generation newer than the rollback
// target is marked bad, so the refresh loop holds there instead of
// immediately rolling forward again; publishing a brand-new generation
// clears the hold.
func (s *server) handleRollback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if s.store == "" {
		http.Error(w, "rollback requires -snapshot-dir", http.StatusBadRequest)
		return
	}
	var gen uint64
	if genStr := queryParam(r.URL.RawQuery, "gen"); genStr != "" {
		v, err := strconv.ParseUint(genStr, 10, 64)
		if err != nil || v == 0 {
			http.Error(w, "bad gen parameter", http.StatusBadRequest)
			return
		}
		gen = v
	}
	s.reloadMu.Lock()
	from := s.coco.ServingInfo().CatalogGen
	gens, err := snapstore.ListGenerations(s.store)
	var target uint64 // the generation gen names, or the newest older than from
	for _, g := range gens {
		if g.ID == gen || (gen == 0 && g.ID < from) {
			target = g.ID
		}
	}
	var g snapstore.Gen
	if err == nil && target != 0 {
		if g, err = s.coco.RollbackTo(target); err == nil {
			// Skiplist everything newer than the target so the refresh
			// loop holds at the operator's choice.
			for _, cand := range gens {
				if cand.ID > g.ID {
					s.markBadLocked(cand.ID)
				}
			}
			s.noteRollbackLocked(from, g.ID, "operator rollback")
		}
	}
	s.reloadMu.Unlock()
	switch {
	case err != nil:
		http.Error(w, "rollback failed: "+err.Error(), http.StatusInternalServerError)
	case target == 0 && gen != 0:
		http.Error(w, "rollback: generation "+strconv.FormatUint(gen, 10)+" is not committed", http.StatusNotFound)
	case target == 0:
		http.Error(w, "rollback: no committed generation older than "+strconv.FormatUint(from, 10), http.StatusNotFound)
	default:
		s.writeJSON(w, map[string]any{
			"status":   "rolled_back",
			"gen":      g.ID,
			"snapshot": s.snapshotInfo(),
		})
	}
}

// scrubLoop runs the background integrity scrubber: every interval, one
// ScrubOnce pass re-hashes the served generation's files against their
// manifest, quarantining and repairing silent corruption. The pass runs
// entirely off the request path (serving reads in-memory shards), and the
// loop exits when done closes.
func (s *server) scrubLoop(interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		s.scrubTick()
	}
}

// scrubTick is one scrubber pass with its bookkeeping.
func (s *server) scrubTick() {
	rep, err := s.coco.ScrubOnce()
	if err != nil {
		s.scrubErrors.Inc()
		log.Printf("scrub: %v", err)
		return
	}
	s.scrubPasses.Inc()
	s.scrubRepairs.Add(uint64(len(rep.Repaired)))
	s.scrubQuarantines.Add(uint64(len(rep.Quarantined)))
	s.scrubUnrepaired.Add(uint64(len(rep.Unrepaired)))
	s.scrubMu.Lock()
	s.lastScrub = rep
	s.scrubMu.Unlock()
	if !rep.Clean() {
		log.Printf("scrub: gen %d: %d mismatches, %d quarantined, %d repaired, %d unrepaired",
			rep.Gen, len(rep.Mismatches), len(rep.Quarantined), len(rep.Repaired), len(rep.Unrepaired))
	}
}

// snapstoreInfo is the /stats "snapstore" section: the catalog listing
// with its skiplist, the last rollback and the last scrub report. Enabled
// is false (and the rest empty) when the net was built live.
type snapstoreInfo struct {
	Enabled      bool                   `json:"enabled"`
	Root         string                 `json:"root,omitempty"`
	Generations  []genStat              `json:"generations,omitempty"`
	LastRollback *rollbackStat          `json:"last_rollback,omitempty"`
	LastScrub    *snapstore.ScrubReport `json:"last_scrub,omitempty"`
}

// genStat is one catalog generation in /stats.
type genStat struct {
	ID               uint64 `json:"id"`
	CreatedAt        string `json:"created_at"`
	ManifestChecksum string `json:"manifest_checksum"`
	Serving          bool   `json:"serving,omitempty"`
	Bad              bool   `json:"bad,omitempty"` // skiplisted by validation failure or rollback
}

// rollbackStat describes the most recent rollback.
type rollbackStat struct {
	From   uint64 `json:"from_gen"`
	To     uint64 `json:"to_gen"`
	At     string `json:"at"` // RFC 3339
	Reason string `json:"reason"`
}

func (s *server) snapstoreInfo() snapstoreInfo {
	var out snapstoreInfo
	s.scrubMu.Lock()
	out.LastScrub = s.lastScrub
	s.scrubMu.Unlock()
	if s.store == "" {
		return out
	}
	out.Enabled = true
	out.Root = s.store
	gens, err := snapstore.ListGenerations(s.store)
	if err != nil {
		return out
	}
	serving := s.coco.ServingInfo().CatalogGen
	s.reloadMu.Lock()
	out.LastRollback = s.lastRollback
	for _, g := range gens {
		out.Generations = append(out.Generations, genStat{
			ID:               g.ID,
			CreatedAt:        g.CreatedAt.UTC().Format(time.RFC3339),
			ManifestChecksum: fmt.Sprintf("%08x", g.ManifestChecksum),
			Serving:          g.ID == serving,
			Bad:              s.badGens[g.ID],
		})
	}
	s.reloadMu.Unlock()
	return out
}
