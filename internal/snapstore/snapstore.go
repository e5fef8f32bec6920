// Package snapstore is the crash-safe lifecycle layer under sharded
// snapshot directories: instead of one flat directory that every save
// overwrites in place, a store root holds an append-only sequence of
// retained generations plus a journaled catalog naming the committed ones:
//
//	root/
//	  CATALOG            committed generation list (JSON, renamed into place)
//	  gen-000001/        one complete sharded snapshot (manifest + files)
//	  gen-000002/
//	  .gen-tmp-*         an in-flight save (uncommitted; swept on recovery)
//
// A save writes its entire generation into a .gen-tmp-* directory, fsyncs
// it, renames it to its gen-%06d name, fsyncs the root, and then — the
// single commit point — rewrites CATALOG via WriteFileAtomic. A crash
// anywhere in that sequence leaves either the old catalog (the new
// generation's files are garbage a recovery sweep deletes) or the new one
// (the generation is complete and durable); there is no in-between state a
// loader can observe. Open performs the recovery sweep: every .gen-tmp-*
// and every gen-* directory the catalog does not name is deleted.
//
// Retention turns the store into a rollback window: commits prune to the
// newest Retain generations (protected generations — e.g. the one a server
// is serving — are never pruned), so a generation that loads clean but
// misbehaves can be rolled back to the newest earlier generation that
// still verifies.
//
// The package is deliberately manifest-agnostic: it journals directories
// and verifies (file, checksum) pairs, while the snapshot format itself —
// manifests, shard files, serving metadata — stays in internal/pipeline,
// which builds its catalog-aware SaveShards/LoadShards on top of this.
package snapstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"alicoco/internal/faultfs"
)

const (
	// CatalogName is the catalog's file name inside a store root; its
	// rename is every save's commit point.
	CatalogName = "CATALOG"

	// DefaultRetain is how many committed generations a store keeps when
	// the caller does not say otherwise: enough of a rollback window to
	// survive a bad publish or a corrupted newest generation, small enough
	// that disk use stays bounded at a few snapshots.
	DefaultRetain = 4

	catalogVersion = 1
	genDirPrefix   = "gen-"
	tmpGenPrefix   = ".gen-tmp-"
)

// Gen is one committed generation in the catalog.
type Gen struct {
	// ID is the generation's monotonically increasing identity.
	ID uint64 `json:"id"`
	// Dir is the generation's directory name, relative to the store root.
	Dir string `json:"dir"`
	// CreatedAt is when the generation was committed.
	CreatedAt time.Time `json:"created_at"`
	// ManifestChecksum is the CRC-32 (IEEE) of the generation's manifest
	// file bytes as committed — the anchor `snapshot verify` and the
	// scrubber hang the whole chain of trust on (catalog -> manifest ->
	// per-file checksums).
	ManifestChecksum uint32 `json:"manifest_checksum"`
}

// catalogFile is the on-disk CATALOG: the committed generations, ascending
// by ID.
type catalogFile struct {
	Version     int   `json:"version"`
	Generations []Gen `json:"generations"`
}

// Options configures a store.
type Options struct {
	// Retain is how many committed generations commits keep; <= 0 means
	// DefaultRetain. Retention never drops protected generations.
	Retain int
}

// Store is a handle on one snapshot store root. The catalog is re-read
// from disk on every listing, so a handle observes commits made by other
// handles (or other processes) without refresh calls; the mutex only
// serializes this handle's own writes.
type Store struct {
	root   string
	retain int
	mu     sync.Mutex
}

// IsStore reports whether root holds a generation catalog.
func IsStore(root string) bool {
	_, err := os.Stat(filepath.Join(root, CatalogName))
	return err == nil
}

// Open opens (creating if needed) the store at root and runs the recovery
// sweep: uncommitted temp directories and generation directories the
// catalog does not name are deleted, and catalog entries whose directories
// are gone are dropped. After Open returns, every directory the catalog
// names exists and every gen-*/.gen-tmp-* directory on disk is committed.
func Open(root string, opts Options) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: open: %w", err)
	}
	s := &Store{root: root, retain: opts.Retain}
	if s.retain <= 0 {
		s.retain = DefaultRetain
	}
	if _, err := s.Sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Retain returns the store's retention count.
func (s *Store) Retain() int { return s.retain }

// readCatalog loads and validates the catalog at root; a missing catalog
// is an empty store, not an error.
func readCatalog(root string) (*catalogFile, error) {
	f, err := faultfs.Open(filepath.Join(root, CatalogName))
	if errors.Is(err, fs.ErrNotExist) {
		return &catalogFile{Version: catalogVersion}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("snapstore: read catalog: %w", err)
	}
	defer f.Close()
	var cat catalogFile
	if err := json.NewDecoder(f).Decode(&cat); err != nil {
		return nil, fmt.Errorf("snapstore: read catalog: %w", err)
	}
	if cat.Version != catalogVersion {
		return nil, fmt.Errorf("snapstore: read catalog: unsupported version %d", cat.Version)
	}
	var lastID uint64
	for i := range cat.Generations {
		g := &cat.Generations[i]
		if g.ID == 0 || g.ID <= lastID {
			return nil, fmt.Errorf("snapstore: read catalog: generation ids not ascending at entry %d", i)
		}
		lastID = g.ID
		if g.Dir == "" || g.Dir != filepath.Base(g.Dir) || !strings.HasPrefix(g.Dir, genDirPrefix) {
			return nil, fmt.Errorf("snapstore: read catalog: generation %d has invalid dir %q", g.ID, g.Dir)
		}
	}
	return &cat, nil
}

// writeCatalog commits a catalog atomically and durably.
func writeCatalog(root string, cat *catalogFile) error {
	return WriteFileAtomic(root, CatalogName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(cat)
	})
}

// Generations lists the committed generations, ascending by ID. The slice
// is the caller's.
func (s *Store) Generations() ([]Gen, error) {
	return ListGenerations(s.root)
}

// ListGenerations lists a store's committed generations, ascending by ID,
// without opening the store — a strictly read-only catalog read that never
// sweeps, for inspection tools that must not mutate the store they audit.
func ListGenerations(root string) ([]Gen, error) {
	cat, err := readCatalog(root)
	if err != nil {
		return nil, err
	}
	return cat.Generations, nil
}

// Latest returns the newest committed generation; ok is false for an
// empty store.
func (s *Store) Latest() (Gen, bool, error) {
	gens, err := s.Generations()
	if err != nil || len(gens) == 0 {
		return Gen{}, false, err
	}
	return gens[len(gens)-1], true, nil
}

// Find returns the committed generation with the given ID.
func (s *Store) Find(id uint64) (Gen, error) {
	gens, err := s.Generations()
	if err != nil {
		return Gen{}, err
	}
	for _, g := range gens {
		if g.ID == id {
			return g, nil
		}
	}
	return Gen{}, fmt.Errorf("snapstore: generation %d is not in the catalog", id)
}

// GenDir returns the absolute directory of a generation.
func (s *Store) GenDir(g Gen) string { return filepath.Join(s.root, g.Dir) }

func genDirName(id uint64) string { return fmt.Sprintf("%s%06d", genDirPrefix, id) }

// ResolveDir maps a store root to its newest committed generation's
// directory. Anything that is not a store root — a generation directory, a
// plain directory — is an error, as is a store with no committed
// generations: the caller pointed at nothing to serve.
func ResolveDir(dir string) (resolved string, gen uint64, err error) {
	if !IsStore(dir) {
		return "", 0, fmt.Errorf("snapstore: %s is not a snapshot store (no %s)", dir, CatalogName)
	}
	cat, err := readCatalog(dir)
	if err != nil {
		return "", 0, err
	}
	if len(cat.Generations) == 0 {
		return "", 0, fmt.Errorf("snapstore: %s: catalog has no committed generations", dir)
	}
	g := cat.Generations[len(cat.Generations)-1]
	return filepath.Join(dir, g.Dir), g.ID, nil
}

// Sweep is the recovery pass: it deletes every uncommitted temp directory
// and every gen-* directory the catalog does not name (a save that crashed
// after renaming its directory but before the catalog commit), and drops
// catalog entries whose directories are missing (a prune that crashed
// between the catalog write and the directory removal leaves the opposite
// orphan — an entry-less directory — which the first rule already covers).
// It returns the names it removed.
func (s *Store) Sweep() (removed []string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cat, err := readCatalog(s.root)
	if err != nil {
		return nil, err
	}
	committed := make(map[string]bool, len(cat.Generations))
	for _, g := range cat.Generations {
		committed[g.Dir] = true
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("snapstore: sweep: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		stray := strings.HasPrefix(name, tmpGenPrefix) ||
			(e.IsDir() && strings.HasPrefix(name, genDirPrefix) && !committed[name])
		if !stray {
			continue
		}
		if err := faultfs.RemoveAll(filepath.Join(s.root, name)); err != nil {
			return removed, fmt.Errorf("snapstore: sweep %s: %w", name, err)
		}
		removed = append(removed, name)
	}
	// Entries whose directories are gone cannot be loaded or rolled back
	// to; dropping them keeps every catalog entry serviceable.
	live := cat.Generations[:0]
	for _, g := range cat.Generations {
		if _, err := os.Stat(filepath.Join(s.root, g.Dir)); err == nil {
			live = append(live, g)
		}
	}
	if len(live) != len(cat.Generations) {
		cat.Generations = live
		if err := writeCatalog(s.root, cat); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Tx is one in-flight generation: a temp directory the caller fills with
// the generation's files, then commits (rename + catalog update) or
// aborts (delete).
type Tx struct {
	store *Store
	dir   string
	done  bool
}

// Begin starts a new generation: a .gen-tmp-* directory under the root
// that Commit will rename into place. Fill it via Dir, then Commit or
// Abort; a crash in between leaves only a temp directory the next Open
// sweeps away.
func (s *Store) Begin() (*Tx, error) {
	dir, err := os.MkdirTemp(s.root, tmpGenPrefix)
	if err != nil {
		return nil, fmt.Errorf("snapstore: begin: %w", err)
	}
	return &Tx{store: s, dir: dir}, nil
}

// Dir is the transaction's directory; the caller writes the generation's
// files (manifest included) into it before Commit.
func (t *Tx) Dir() string { return t.dir }

// Abort deletes an uncommitted transaction's directory. Safe to defer:
// after Commit it does nothing.
func (t *Tx) Abort() {
	if t.done {
		return
	}
	t.done = true
	os.RemoveAll(t.dir)
}

// Commit makes the transaction's directory the newest committed
// generation: fsync the directory, rename it to its gen-%06d name, fsync
// the root, then rewrite the catalog — the single commit point — naming it
// (and dropping generations beyond the retention window; their directories
// are deleted after the catalog lands, so a crash mid-prune only leaves
// orphans the next sweep removes). manifestName is the generation's
// manifest file, whose committed bytes are checksummed into the catalog
// entry. protect lists generation IDs retention must keep regardless of
// age (nil is fine).
func (t *Tx) Commit(manifestName string, protect map[uint64]bool) (Gen, error) {
	if t.done {
		return Gen{}, errors.New("snapstore: commit: transaction already finished")
	}
	s := t.store
	s.mu.Lock()
	defer s.mu.Unlock()
	cat, err := readCatalog(s.root)
	if err != nil {
		return Gen{}, err
	}
	manSum, err := fileCRC(filepath.Join(t.dir, manifestName), 0, 0)
	if err != nil {
		return Gen{}, fmt.Errorf("snapstore: commit: manifest: %w", err)
	}
	// Make the generation's contents durable before anything can name it.
	if err := faultfs.SyncDir(t.dir); err != nil {
		return Gen{}, fmt.Errorf("snapstore: commit: %w", err)
	}
	id := uint64(1)
	if n := len(cat.Generations); n > 0 {
		id = cat.Generations[n-1].ID + 1
	}
	g := Gen{ID: id, Dir: genDirName(id), CreatedAt: time.Now().UTC(), ManifestChecksum: manSum}
	if err := faultfs.Rename(t.dir, filepath.Join(s.root, g.Dir)); err != nil {
		return Gen{}, fmt.Errorf("snapstore: commit: %w", err)
	}
	if err := faultfs.SyncDir(s.root); err != nil {
		return Gen{}, fmt.Errorf("snapstore: commit: %w", err)
	}
	t.done = true // the directory is renamed away; Abort must not touch it
	keep, drop := retainSplit(append(cat.Generations, g), s.retain, protect)
	cat.Generations = keep
	if err := writeCatalog(s.root, cat); err != nil {
		return Gen{}, err
	}
	for _, d := range drop {
		// Best-effort: a failure (or crash) here leaves an orphan directory
		// the catalog no longer names, which the next sweep deletes.
		_ = faultfs.RemoveAll(filepath.Join(s.root, d.Dir))
	}
	return g, nil
}

// Prune enforces the retention window outside a commit (a serving process
// bounding a store it does not write), keeping the newest retain
// generations plus every protected ID.
func (s *Store) Prune(protect map[uint64]bool) (dropped []Gen, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cat, err := readCatalog(s.root)
	if err != nil {
		return nil, err
	}
	keep, drop := retainSplit(cat.Generations, s.retain, protect)
	if len(drop) == 0 {
		return nil, nil
	}
	cat.Generations = keep
	if err := writeCatalog(s.root, cat); err != nil {
		return nil, err
	}
	for _, d := range drop {
		_ = faultfs.RemoveAll(filepath.Join(s.root, d.Dir))
	}
	return drop, nil
}

// retainSplit splits an ascending generation list into the entries to keep
// — the newest retain ones plus every protected ID — and the rest.
func retainSplit(gens []Gen, retain int, protect map[uint64]bool) (keep, drop []Gen) {
	cut := len(gens) - retain
	for i, g := range gens {
		if i < cut && !protect[g.ID] {
			drop = append(drop, g)
		} else {
			keep = append(keep, g)
		}
	}
	return keep, drop
}

// QuarantinePath picks the name a poisoned file is renamed aside to:
// path.quarantined when free, else a numbered variant — so quarantining
// the same logical file across successive generations never collides with
// an earlier quarantine and never clobbers evidence an operator has not
// inspected yet. gen seeds the suffix so the origin generation is legible
// in the name.
func QuarantinePath(path string, gen uint64) string {
	dst := path + ".quarantined"
	if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
		return dst
	}
	for n := gen; ; n++ {
		dst := fmt.Sprintf("%s.quarantined.%d", path, n)
		if _, err := os.Lstat(dst); errors.Is(err, fs.ErrNotExist) {
			return dst
		}
	}
}
