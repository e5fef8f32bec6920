package snapstore

import (
	"io"
	"os"
	"path/filepath"
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
	if err := os.WriteFile(filepath.Join(tx.Dir(), "manifest.json"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := tx.Commit("manifest.json", nil)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCatalogRoundTrip: commits append ascending generations named
// gen-%06d, and Latest/Find/Generations agree on them across reopens.
func TestCatalogRoundTrip(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Latest(); ok {
		t.Fatal("empty store reported a latest generation")
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
	s2, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gens, err := s2.Generations()
	if err != nil || len(gens) != 3 {
		t.Fatalf("reopened store: %d generations (%v), want 3", len(gens), err)
	}
	for i, g := range gens {
		if g.ID != uint64(i+1) {
			t.Fatalf("generation %d has ID %d; catalog must stay ascending", i, g.ID)
		}
	}
	latest, ok, err := s2.Latest()
	if err != nil || !ok || latest.ID != 3 {
		t.Fatalf("Latest: %+v ok=%v err=%v", latest, ok, err)
	}
	if g, err := s2.Find(2); err != nil || g.ID != 2 {
		t.Fatalf("Find(2): %+v err=%v", g, err)
	}
	if _, err := s2.Find(99); err == nil {
		t.Fatal("Find(99) on a 3-generation store succeeded")
	}
}

// TestRetainPrune: commits beyond the retention window drop the oldest
// generations — entry and directory both — unless protected.
func TestRetainPrune(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		commitGen(t, s, strings.Repeat("y", i))
	}
	gens, err := s.Generations()
	if err != nil || len(gens) != 2 || gens[0].ID != 3 || gens[1].ID != 4 {
		t.Fatalf("after 4 commits with retain 2: %+v err=%v", gens, err)
	}
	if _, err := os.Stat(filepath.Join(root, genDirName(1))); !os.IsNotExist(err) {
		t.Fatal("pruned generation 1's directory survived")
	}
	if _, err := os.Stat(filepath.Join(root, genDirName(4))); err != nil {
		t.Fatal("retained generation 4's directory is missing")
	}

	// A protected generation survives retention on the next commit.
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(tx.Dir(), "manifest.json"), []byte("w"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit("manifest.json", map[uint64]bool{3: true}); err != nil {
		t.Fatal(err)
	}
	gens, _ = s.Generations()
	ids := make([]uint64, len(gens))
	for i, g := range gens {
		ids[i] = g.ID
	}
	found := false
	for _, id := range ids {
		if id == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("protected generation 3 was pruned: %v", ids)
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

	s2, err := Open(root, Options{})
	if err != nil {
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
	gens, err := s2.Generations()
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
	if gens, _ := s.Generations(); len(gens) != 0 {
		t.Fatal("abort committed something")
	}
	g := commitGen(t, s, "kept")
	if _, err := os.Stat(s.GenDir(g)); err != nil {
		t.Fatal("deferred Abort after Commit deleted the committed generation")
	}
}

// TestResolveDir: a store root resolves to its newest generation; an empty
// catalog, a generation directory and a plain directory are all errors.
func TestResolveDir(t *testing.T) {
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResolveDir(root); err == nil {
		t.Fatal("store with no committed generation resolved")
	}

	commitGen(t, s, "one")
	g2 := commitGen(t, s, "two")
	resolved, gen, err := ResolveDir(root)
	if err != nil || gen != g2.ID || resolved != s.GenDir(g2) {
		t.Fatalf("ResolveDir(store): %q gen=%d err=%v", resolved, gen, err)
	}
	for _, dir := range []string{resolved, t.TempDir()} {
		if got, _, err := ResolveDir(dir); err == nil {
			t.Fatalf("ResolveDir(%s) resolved a non-store directory to %q", dir, got)
		}
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
	if _, err := s.Generations(); err == nil {
		t.Fatal("garbage catalog accepted")
	}
	if err := os.WriteFile(filepath.Join(root, CatalogName),
		[]byte(`{"version":1,"generations":[{"id":2,"dir":"gen-000002"},{"id":1,"dir":"gen-000001"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Generations(); err == nil {
		t.Fatal("descending catalog accepted")
	}
}
