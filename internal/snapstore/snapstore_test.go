package snapstore

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// commitGen writes one tiny generation (a manifest file with the given
// content) and commits it, returning the committed Gen.
func commitGen(t *testing.T, s *Store, content string) Gen {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := os.WriteFile(filepath.Join(tx.Dir(), ShardManifestName), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCatalogRoundTrip: commits append ascending generations named
// gen-%06d, and Lookup and ListGenerations agree on them across reopens.
func TestCatalogRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g, err := Lookup(root, nil); err == nil {
		t.Fatalf("empty store reported a latest generation %+v", g)
	}
	for i := 1; i <= 3; i++ {
		g := commitGen(t, s, strings.Repeat("x", i))
		if g.ID != uint64(i) || g.Dir != genDirName(uint64(i)) || g.ManifestChecksum == 0 {
			t.Fatalf("commit %d produced %+v", i, g)
		}
	}
	if !IsStore(root) {
		t.Fatal("committed store not recognized as a store")
	}
	// A second handle (a different process) sees the same catalog.
	if _, err := Open(root, Options{}); err != nil {
		t.Fatal(err)
	}
	gens, err := ListGenerations(root)
	if err != nil || len(gens) != 3 {
		t.Fatalf("reopened store: %d generations (%v), want 3", len(gens), err)
	}
	for i, g := range gens {
		if g.ID != uint64(i+1) {
			t.Fatalf("generation %d has ID %d; catalog must stay ascending", i, g.ID)
		}
	}
	latest, err := Lookup(root, nil)
	if err != nil || latest.ID != 3 {
		t.Fatalf("Lookup: %+v err=%v", latest, err)
	}
	byID := func(id uint64) func(Gen) bool { return func(g Gen) bool { return g.ID == id } }
	if g, err := Lookup(root, byID(2)); err != nil || g.ID != 2 {
		t.Fatalf("Lookup(2): %+v err=%v", g, err)
	}
	if _, err := Lookup(root, byID(99)); err == nil {
		t.Fatal("Lookup(99) on a 3-generation store succeeded")
	}
}

// TestRetainPrune: commits beyond the retention window drop the oldest
// generations — entry and directory both — unless a reader holds them; the
// first commit after the hold is released drops a held one.
func TestRetainPrune(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		commitGen(t, s, strings.Repeat("y", i))
	}
	// ids lists the catalog, and checks that exactly its generations have
	// directories.
	ids := func() []uint64 {
		t.Helper()
		gens, err := ListGenerations(root)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, g := range gens {
			out = append(out, g.ID)
		}
		for id := uint64(1); id <= gens[len(gens)-1].ID; id++ {
			_, err := os.Stat(filepath.Join(root, genDirName(id)))
			if listed := slices.Contains(out, id); listed != (err == nil) {
				t.Fatalf("generation %d: listed %v in %v, directory: %v", id, listed, out, err)
			}
		}
		return out
	}
	if got := ids(); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("after 4 commits with retain 2: %v", got)
	}

	// A held generation survives retention on every commit.
	h, err := HoldGen(root, Gen{ID: 3, Dir: genDirName(3)})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	commitGen(t, s, "w")
	commitGen(t, s, "x")
	if got := ids(); !slices.Equal(got, []uint64{3, 5, 6}) {
		t.Fatalf("two commits past held generation 3: %v, want [3 5 6]", got)
	}
	h.Release()
	commitGen(t, s, "z")
	if got := ids(); !slices.Equal(got, []uint64{6, 7}) {
		t.Fatalf("commit after the hold is released: %v, want [6 7]", got)
	}
	// A generation retention dropped can no longer be held.
	if _, err := HoldGen(root, Gen{ID: 3, Dir: genDirName(3)}); err == nil {
		t.Fatal("held a dropped generation")
	}
}

// TestSweepRemovesDebris: Open sweeps uncommitted temp dirs and gen-*
// directories the catalog does not name, and drops catalog entries whose
// directories vanished — every form of crash debris.
func TestSweepRemovesDebris(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitGen(t, s, "alpha")
	commitGen(t, s, "beta")

	// Crash debris: a torn transaction, an uncataloged generation dir
	// (crash between rename and catalog write), and a committed entry
	// whose directory was lost.
	if err := os.MkdirAll(filepath.Join(root, ".gen-tmp-torn"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, ".gen-tmp-torn", "shard.fz"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, genDirName(9)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(root, genDirName(1))); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(root, Options{}); err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".gen-tmp-") || e.Name() == genDirName(9) {
			t.Fatalf("sweep left %s behind", e.Name())
		}
	}
	gens, err := ListGenerations(root)
	if err != nil || len(gens) != 1 || gens[0].ID != 2 {
		t.Fatalf("after sweep: %+v err=%v, want only generation 2", gens, err)
	}
}

// TestAbortLeavesNoTrace: an aborted transaction deletes its directory and
// commits nothing; Abort after Commit is a no-op.
func TestAbortLeavesNoTrace(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	dir := tx.Dir()
	tx.Abort()
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatal("aborted transaction's directory survived")
	}
	if gens, _ := ListGenerations(root); len(gens) != 0 {
		t.Fatal("abort committed something")
	}
	g := commitGen(t, s, "kept")
	if _, err := os.Stat(filepath.Join(root, g.Dir)); err != nil {
		t.Fatal("deferred Abort after Commit deleted the committed generation")
	}
}

// TestLookup: a store root resolves to its newest generation, or to the
// newest one the predicate takes; an empty catalog, a predicate taking
// nothing, a generation directory and a plain directory are all errors.
// Lookup only reads: a save in flight survives it.
func TestLookup(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup(root, nil); err == nil {
		t.Fatal("store with no committed generation resolved")
	}

	g1 := commitGen(t, s, "one")
	g2 := commitGen(t, s, "two")
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	got, err := Lookup(root, nil)
	if err != nil || got.ID != g2.ID || got.ManifestChecksum != g2.ManifestChecksum {
		t.Fatalf("Lookup(store): %+v err=%v, want %+v", got, err, g2)
	}
	older := func(g Gen) bool { return g.ID < g2.ID }
	if got, err := Lookup(root, older); err != nil || got.ID != g1.ID {
		t.Fatalf("Lookup(older than %d): %+v err=%v, want %+v", g2.ID, got, err, g1)
	}
	if got, err := Lookup(root, func(Gen) bool { return false }); err == nil {
		t.Fatalf("Lookup with a predicate taking nothing resolved %+v", got)
	}
	for _, dir := range []string{filepath.Join(root, g2.Dir), t.TempDir()} {
		if got, err := Lookup(dir, nil); err == nil {
			t.Fatalf("Lookup(%s) resolved a non-store directory to %+v", dir, got)
		}
	}
	if _, err := os.Stat(tx.Dir()); err != nil {
		t.Fatalf("Lookup touched the save in flight: %v", err)
	}
}

// TestQuarantinePath: the first quarantine keeps the bare .quarantined
// name (operator muscle memory and older tooling), and collisions get a
// numbered suffix instead of clobbering the existing evidence.
func TestQuarantinePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shard-0001.fz")
	if got, want := QuarantinePath(path, 7), path+".quarantined"; got != want {
		t.Fatalf("first quarantine: %q, want %q", got, want)
	}
	if err := os.WriteFile(path+".quarantined", []byte("old evidence"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := QuarantinePath(path, 7)
	if got == path+".quarantined" {
		t.Fatal("second quarantine would clobber the first")
	}
	if !strings.HasPrefix(got, path+".quarantined.") {
		t.Fatalf("collision name %q lacks the numbered suffix", got)
	}
	if err := os.WriteFile(got, []byte("newer evidence"), 0o644); err != nil {
		t.Fatal(err)
	}
	third := QuarantinePath(path, 7)
	if third == got || third == path+".quarantined" {
		t.Fatalf("third quarantine reused %q", third)
	}
}

// TestWriteFileAtomic: content lands complete under the final name with no
// temp debris; an emit error leaves no file at all.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	err := WriteFileAtomic(dir, "out.bin", func(w io.Writer) error {
		_, err := w.Write([]byte("payload"))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "out.bin"))
	if err != nil || string(got) != "payload" {
		t.Fatalf("read back %q, %v", got, err)
	}

	sentinel := os.ErrInvalid
	err = WriteFileAtomic(dir, "bad.bin", func(io.Writer) error { return sentinel })
	if err == nil {
		t.Fatal("emit error swallowed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "out.bin" {
			t.Fatalf("failed write left %s behind", e.Name())
		}
	}
}

// TestVerifyFiles: reports pair Got/Want per file, flag mismatches and
// missing files, and never stop at the first failure.
func TestVerifyFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "good"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	good := VerifyFiles(dir, []FileCheck{{Name: "good"}})[0]
	if good.Err != nil || good.Got == 0 {
		t.Fatalf("hashing an intact file: %+v", good)
	}
	want := good.Got // CRC of "hello" as computed by the verifier itself

	if err := os.WriteFile(filepath.Join(dir, "bad"), []byte("hellx"), 0o644); err != nil {
		t.Fatal(err)
	}
	reports := VerifyFiles(dir, []FileCheck{
		{Name: "good", Want: want},
		{Name: "bad", Want: want},
		{Name: "missing", Want: want},
	})
	if len(reports) != 3 {
		t.Fatalf("%d reports, want 3", len(reports))
	}
	if !reports[0].OK() {
		t.Fatalf("good file failed: %+v", reports[0])
	}
	if reports[1].OK() || reports[1].Err != nil || reports[1].Got == want {
		t.Fatalf("bad file: %+v", reports[1])
	}
	if reports[2].OK() || reports[2].Err == nil {
		t.Fatalf("missing file: %+v", reports[2])
	}
}

// TestCatalogRejectsGarbage: a corrupted or descending catalog refuses to
// open instead of serving lies.
func TestCatalogRejectsGarbage(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitGen(t, s, "v")
	if err := os.WriteFile(filepath.Join(root, CatalogName), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListGenerations(root); err == nil {
		t.Fatal("garbage catalog accepted")
	}
	if err := os.WriteFile(filepath.Join(root, CatalogName),
		[]byte(`{"version":1,"generations":[{"id":2,"dir":"gen-000002"},{"id":1,"dir":"gen-000001"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListGenerations(root); err == nil {
		t.Fatal("descending catalog accepted")
	}
}

// TestCatalogRejectsSharedDir: a catalog whose entries name one directory
// twice is refused, so a commit's retention cannot drop the older entry
// and delete the files of the newer generation the catalog still lists.
func TestCatalogRejectsSharedDir(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitGen(t, s, "one")
	commitGen(t, s, "two")
	if err := os.WriteFile(filepath.Join(root, CatalogName),
		[]byte(`{"version":1,"generations":[{"id":1,"dir":"gen-000002"},{"id":2,"dir":"gen-000002"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ListGenerations(root); err == nil {
		t.Fatal("catalog naming one directory twice accepted")
	}
	s.retain = 1
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	if err := os.WriteFile(filepath.Join(tx.Dir(), ShardManifestName), []byte("three"), 0o644); err != nil {
		t.Fatal(err)
	}
	if g, err := tx.Commit(); err == nil {
		t.Fatalf("commit ran on a catalog naming one directory twice, committing %+v", g)
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000002", "manifest.json")); err != nil {
		t.Fatalf("the newest generation's files are gone: %v", err)
	}
}

// FuzzReadCatalog: the catalog decoder must never panic, and every catalog
// it accepts has ascending IDs, names each generation's directory
// genDirName(id), and round-trips through writeCatalog's encoding. The
// committed seeds (testdata/fuzz/FuzzReadCatalog) are a committed
// catalog, one naming a directory twice, descending IDs, and truncated
// JSON.
func FuzzReadCatalog(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		cat, err := decodeCatalog(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var last uint64
		for _, g := range cat.Generations {
			if g.ID <= last || g.Dir != genDirName(g.ID) {
				t.Fatalf("accepted generation %+v after id %d", g, last)
			}
			last = g.ID
		}
		var buf bytes.Buffer
		if err := encodeCatalog(&buf, cat); err != nil {
			t.Fatalf("accepted catalog does not encode: %v", err)
		}
		back, err := decodeCatalog(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded catalog is rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(back, cat) {
			t.Fatalf("re-encoded catalog decodes differently:\n%+v\n%+v", cat, back)
		}
	})
}
