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
// loader can observe.
//
// Only writers open a store. Open performs the recovery sweep: every
// .gen-tmp-* and every gen-* directory the catalog does not name is
// deleted, unless a live writer holds it. A transaction holds an exclusive
// flock on its directory from Begin until Commit or Abort returns (the
// lock follows the directory through Commit's rename, and a writer that
// dies drops it), and the sweep skips every directory it cannot lock; on
// platforms without flock it cannot tell, and deletes a save another
// process has in flight. A process that only reads a store (loads,
// reloads, rollbacks, scrubs) never opens it: Lookup and ListGenerations
// read the catalog and nothing else, and HoldGen takes a shared flock on
// the generation it loads.
//
// Retention turns the store into a rollback window: a commit keeps the
// newest Retain generations, so a generation that loads clean but
// misbehaves can be rolled back to the newest earlier generation that
// still verifies. A commit is the only code that drops generations, and
// it keeps every older one a live process holds: it try-locks each
// generation past the window and keeps any it cannot lock, so a server
// rolled back past a publisher's window keeps serving a generation that
// is still on disk, and the first commit after the server moves off it
// drops it. Without flock a commit cannot tell, and drops by the window
// alone.
//
// The package also owns what a generation holds (shards.go, meta.go,
// scrub.go): the manifest, the serving metadata in meta.bin, and the
// loading, verifying and scrubbing of shard files, whose codec stays in
// internal/core. Commit writes a generation, LoadGen is the one way one
// reaches serving, and ScrubGen checks and repairs a served one.
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
	// DefaultRetain. A commit also keeps every older generation a live
	// process holds (see HoldGen).
	Retain int
}

// Store is a writer's handle on one snapshot store root: it begins and
// commits generations, and Open sweeps with it. The catalog is re-read
// from disk on every commit, so a handle observes commits made by other
// handles (or other processes); the mutex only serializes this handle's
// own writes. Readers need no handle: see Lookup and HoldGen.
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

// Open opens (creating if needed) the store at root for writing and runs
// the recovery sweep: uncommitted temp directories and generation
// directories the catalog does not name are deleted, and catalog entries
// whose directories are gone are dropped. After Open returns, every
// directory the catalog names exists and every gen-*/.gen-tmp-* directory
// on disk is committed or held by a live writer. Only writers open a
// store: a publisher before each save.
func Open(root string, opts Options) (*Store, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("snapstore: open: %w", err)
	}
	s := &Store{root: root, retain: opts.Retain}
	if s.retain <= 0 {
		s.retain = DefaultRetain
	}
	if err := s.sweep(); err != nil {
		return nil, err
	}
	return s, nil
}

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
	return decodeCatalog(f)
}

// decodeCatalog decodes and validates a catalog: IDs ascend, and each
// generation's dir is the name Commit gives it, genDirName(id) — so no two
// entries share a directory, and dropping one entry can never delete a
// directory another entry still names.
func decodeCatalog(r io.Reader) (*catalogFile, error) {
	var cat catalogFile
	if err := json.NewDecoder(r).Decode(&cat); err != nil {
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
		if g.Dir != genDirName(g.ID) {
			return nil, fmt.Errorf("snapstore: read catalog: generation %d has dir %q, want %q", g.ID, g.Dir, genDirName(g.ID))
		}
	}
	return &cat, nil
}

// writeCatalog commits a catalog atomically and durably.
func writeCatalog(root string, cat *catalogFile) error {
	return WriteFileAtomic(root, CatalogName, func(w io.Writer) error {
		return encodeCatalog(w, cat)
	})
}

// encodeCatalog is the catalog's on-disk encoding.
func encodeCatalog(w io.Writer, cat *catalogFile) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cat)
}

// ListGenerations lists a store's committed generations, ascending by ID,
// without opening the store — a strictly read-only catalog read that never
// sweeps, for readers (servers, inspection tools) that must not mutate it.
func ListGenerations(root string) ([]Gen, error) {
	cat, err := readCatalog(root)
	if err != nil {
		return nil, err
	}
	return cat.Generations, nil
}

func genDirName(id uint64) string { return fmt.Sprintf("%s%06d", genDirPrefix, id) }

// Lookup returns the newest committed generation of the store at root
// that accept takes; a nil accept takes the newest. It only reads the
// catalog and never sweeps, so a reader cannot delete a save in flight.
// Anything that is not a store root — a generation directory, a plain
// directory — is an error, as is a catalog with no generation accept
// takes.
func Lookup(root string, accept func(Gen) bool) (Gen, error) {
	if !IsStore(root) {
		return Gen{}, fmt.Errorf("snapstore: %s is not a snapshot store (no %s)", root, CatalogName)
	}
	gens, err := ListGenerations(root)
	if err != nil {
		return Gen{}, err
	}
	if len(gens) == 0 {
		return Gen{}, fmt.Errorf("snapstore: %s: catalog has no committed generations", root)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		if accept == nil || accept(gens[i]) {
			return gens[i], nil
		}
	}
	return Gen{}, fmt.Errorf("snapstore: %s: no committed generation matches", root)
}

// Hold is a reader's shared lock on one committed generation's directory:
// while a live process holds it, no commit drops the generation.
type Hold struct{ lock *os.File }

// HoldGen takes a shared hold on generation g of the store at root, for a
// reader to take before it reads g's files and to keep while it serves
// them. It waits out a commit that is dropping g, and then fails: the
// generation must still be committed once the hold is taken. Holds are
// shared, so any number of readers hold one generation at once.
func HoldGen(root string, g Gen) (*Hold, error) {
	lock, err := lockDir(filepath.Join(root, g.Dir), true)
	h := &Hold{lock}
	if err == nil {
		_, err = Lookup(root, func(c Gen) bool { return c.ID == g.ID })
	}
	if err != nil {
		h.Release()
		return nil, fmt.Errorf("snapstore: hold generation %d: %w", g.ID, err)
	}
	return h, nil
}

// Release drops the hold; the next commit may drop its generation.
// Releasing a nil or released Hold does nothing.
func (h *Hold) Release() {
	if h != nil {
		h.lock.Close() // on a nil or closed *os.File, Close only returns an error
	}
}

// sweep is the recovery pass: it deletes every uncommitted temp directory
// and every gen-* directory the catalog does not name (a save that crashed
// after renaming its directory but before the catalog commit), and drops
// catalog entries whose directories are missing (a commit that crashed
// between the catalog write and a dropped directory's removal leaves the
// opposite orphan — an entry-less directory — which the first rule already
// covers). A directory whose lock another transaction holds is a save in
// flight and is skipped; a gen-* directory is deleted only if the catalog,
// re-read under its lock, still does not name it, since its writer may
// have committed since the first read.
func (s *Store) sweep() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cat, err := readCatalog(s.root)
	if err != nil {
		return err
	}
	committed := make(map[string]bool, len(cat.Generations))
	for _, g := range cat.Generations {
		committed[g.Dir] = true
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("snapstore: sweep: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		tmp := strings.HasPrefix(name, tmpGenPrefix)
		if !tmp && (!e.IsDir() || !strings.HasPrefix(name, genDirPrefix) || committed[name]) {
			continue
		}
		if err := s.sweepStray(name, tmp); err != nil {
			return fmt.Errorf("snapstore: sweep %s: %w", name, err)
		}
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
		return writeCatalog(s.root, cat)
	}
	return nil
}

// sweepStray deletes the stray directory name unless a live writer holds
// its lock or, for a gen-* directory, the catalog names it by now.
func (s *Store) sweepStray(name string, tmp bool) error {
	path := filepath.Join(s.root, name)
	lock, ok, err := tryLockDir(path)
	if err != nil || !ok {
		return err
	}
	if lock != nil {
		defer lock.Close()
	}
	if !tmp {
		cat, err := readCatalog(s.root)
		if err != nil {
			return err
		}
		for _, g := range cat.Generations {
			if g.Dir == name {
				return nil
			}
		}
	}
	return faultfs.RemoveAll(path)
}

// Tx is one in-flight generation: a temp directory the caller fills with
// the generation's files, then commits (rename + catalog update) or
// aborts (delete). It holds its directory's lock until then, so no
// other writer's sweep deletes it.
type Tx struct {
	store *Store
	dir   string
	lock  *os.File
	done  bool
}

// Begin starts a new generation: a locked .gen-tmp-* directory under the
// root that Commit will rename into place. Fill it via Dir, then Commit or
// Abort; a crash in between leaves only a temp directory the next Open
// sweeps away. (A sweep that takes the new directory's lock first deletes
// it, and the caller's first write into it fails.)
func (s *Store) Begin() (*Tx, error) {
	dir, err := os.MkdirTemp(s.root, tmpGenPrefix)
	if err != nil {
		return nil, fmt.Errorf("snapstore: begin: %w", err)
	}
	lock, err := lockDir(dir, false)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("snapstore: begin: %w", err)
	}
	return &Tx{store: s, dir: dir, lock: lock}, nil
}

// Dir is the transaction's directory; the caller writes the generation's
// files (manifest included) into it before Commit.
func (t *Tx) Dir() string { return t.dir }

// Abort deletes an uncommitted transaction's directory and releases its
// lock. Safe to defer: after Commit it does nothing.
func (t *Tx) Abort() {
	defer t.unlock()
	if t.done {
		return
	}
	t.done = true
	os.RemoveAll(t.dir)
}

func (t *Tx) unlock() {
	if t.lock != nil {
		t.lock.Close()
		t.lock = nil
	}
}

// Commit makes the transaction's directory the newest committed
// generation: fsync the directory, rename it to its gen-%06d name, fsync
// the root, then rewrite the catalog — the single commit point — naming it
// and dropping the generations retention drops (see retainSplit); their
// directories are deleted after the catalog lands, so a crash mid-drop
// only leaves orphans the next sweep removes. The generation's manifest
// (ShardManifestName) must be written by then: its committed bytes are
// checksummed into the catalog entry. The transaction's lock is released
// when Commit returns, whatever the outcome.
func (t *Tx) Commit() (Gen, error) {
	if t.done {
		return Gen{}, errors.New("snapstore: commit: transaction already finished")
	}
	defer t.unlock()
	s := t.store
	s.mu.Lock()
	defer s.mu.Unlock()
	cat, err := readCatalog(s.root)
	if err != nil {
		return Gen{}, err
	}
	manSum, err := fileCRC(filepath.Join(t.dir, ShardManifestName), 0, 0)
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
	keep, drop, locks := retainSplit(s.root, append(cat.Generations, g), s.retain)
	defer func() {
		for _, l := range locks {
			l.Close()
		}
	}()
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

// retainSplit splits an ascending generation list into the entries a
// commit keeps — the newest retain ones, and every older one whose
// directory a live process holds — and the ones it drops. It try-locks
// each generation past the window, keeps any it cannot lock, and returns
// the locks it took: the commit holds them until the dropped directories
// are gone, so a reader waiting to hold one finds it no longer committed.
func retainSplit(root string, gens []Gen, retain int) (keep, drop []Gen, locks []*os.File) {
	cut := len(gens) - retain
	for i, g := range gens {
		if i < cut {
			lock, ok, err := tryLockDir(filepath.Join(root, g.Dir))
			if err == nil && ok {
				drop = append(drop, g)
				locks = append(locks, lock) // nil where there is no flock
				continue
			}
		}
		keep = append(keep, g)
	}
	return keep, drop, locks
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
