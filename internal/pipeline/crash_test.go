package pipeline

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"alicoco/internal/faultfs"
	"alicoco/internal/snapstore"
)

// copyTree replicates a snapshot store so each crash trial mutates its own
// copy.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		s, d := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(d, 0o755); err != nil {
				t.Fatal(err)
			}
			copyTree(t, s, d)
			continue
		}
		in, err := os.Open(s)
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// listTempDirs returns the leftover uncommitted transaction dirs in a
// store root — recovery must always leave zero.
func listTempDirs(t *testing.T, root string) []string {
	t.Helper()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".gen-tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// recoverAndLoad is what the next save does after a crashed one: open
// the store (running the torn-write sweep) and load the newest committed
// generation. It returns the loaded manifest and the newest generation ID.
func recoverAndLoad(t *testing.T, root string) (*snapstore.ShardManifest, uint64) {
	t.Helper()
	if _, err := snapstore.Open(root, snapstore.Options{}); err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if tmps := listTempDirs(t, root); len(tmps) != 0 {
		t.Fatalf("recovery left temp dirs behind: %v", tmps)
	}
	g, err := snapstore.Lookup(root, nil)
	if err != nil {
		t.Fatalf("recovery lost every committed generation: %v", err)
	}
	_, _, man, err := loadShards(filepath.Join(root, g.Dir))
	if err != nil {
		t.Fatalf("recovery load: %v", err)
	}
	return man, g.ID
}

// TestCrashMatrix kills a snapshot save at every single write operation it
// performs — every create, write, fsync, close, rename, directory sync,
// and remove, one trial per operation, with all later writes failing too
// (nothing reaches disk after death) — and proves that recovery after each
// crash yields a store whose newest committed generation is either
// complete generation A (the old snapshot, crash before the catalog
// commit) or complete generation B (the new one, crash after it). No
// trial may ever surface a torn, partial, or unloadable store.
//
// The default run exercises one shard-count transition (3 -> 4). Set
// CRASH_MATRIX=full (the CI workflow_dispatch toggle) to also sweep the
// single-shard and wider transitions.
func TestCrashMatrix(t *testing.T) {
	configs := []struct{ shardsA, shardsB int }{{3, 4}}
	if os.Getenv("CRASH_MATRIX") == "full" {
		configs = append(configs,
			struct{ shardsA, shardsB int }{1, 2},
			struct{ shardsA, shardsB int }{4, 6},
		)
	}
	for _, cfg := range configs {
		t.Run(fmt.Sprintf("%dto%d", cfg.shardsA, cfg.shardsB), func(t *testing.T) {
			runCrashMatrix(t, cfg.shardsA, cfg.shardsB)
		})
	}
}

func runCrashMatrix(t *testing.T, shardsA, shardsB int) {
	a := buildTiny(t)

	// Generation A: a clean commit every trial starts from.
	base := t.TempDir()
	manA, _, err := a.SaveShardsRetain(base, shardsA, 0)
	if err != nil {
		t.Fatalf("seed save: %v", err)
	}

	// Generation B: what the save under attack produces when it completes —
	// a different shard count, so the manifests are distinguishable.
	cleanB := t.TempDir()
	copyTree(t, base, cleanB)
	manB, _, err := a.SaveShardsRetain(cleanB, shardsB, 0)
	if err != nil {
		t.Fatalf("clean second save: %v", err)
	}
	if reflect.DeepEqual(manA, manB) {
		t.Fatal("generation A and B manifests must differ for the matrix to discriminate them")
	}

	// Dry run: arm a crash point that never fires and count the save's
	// write operations — that count is the matrix width.
	dry := t.TempDir()
	copyTree(t, base, dry)
	restore := faultfs.InjectCrash(faultfs.CrashPoint{After: math.MaxUint64})
	if _, _, err := a.SaveShardsRetain(dry, shardsB, 0); err != nil {
		restore()
		t.Fatalf("dry-run save: %v", err)
	}
	ops := faultfs.CrashOps()
	restore()
	if ops < 20 {
		t.Fatalf("dry run counted only %d write operations; crash instrumentation is not covering the save", ops)
	}
	t.Logf("crash matrix: %d write operations", ops)

	for i := uint64(0); i < ops; i++ {
		trial := t.TempDir()
		copyTree(t, base, trial)
		restore := faultfs.InjectCrash(faultfs.CrashPoint{After: i})
		_, _, saveErr := a.SaveShardsRetain(trial, shardsB, 0)
		fired := faultfs.CrashFired()
		restore()
		if !fired {
			t.Fatalf("op %d: crash point never fired", i)
		}

		man, gen := recoverAndLoad(t, trial)
		switch gen {
		case 1:
			if !reflect.DeepEqual(man, manA) {
				t.Fatalf("op %d: recovered generation 1 is not the complete old snapshot", i)
			}
		case 2:
			if !reflect.DeepEqual(man, manB) {
				t.Fatalf("op %d: recovered generation 2 is not the complete new snapshot", i)
			}
		default:
			t.Fatalf("op %d: recovery surfaced unexpected generation %d", i, gen)
		}
		if saveErr == nil && gen != 2 {
			// The only way a crashed save reports success is when the
			// crash landed on best-effort cleanup after the commit point.
			t.Fatalf("op %d: save reported success but generation %d is serving", i, gen)
		}
	}
}

// TestSaveSyncsGenDirOnce: a save fsyncs its generation's directory once,
// in the commit, before the rename that names the generation; the files
// written into it do not each fsync it again.
func TestSaveSyncsGenDirOnce(t *testing.T) {
	a := buildTiny(t)
	root := t.TempDir()
	restore := faultfs.InjectCrash(faultfs.CrashPoint{Op: faultfs.OpSyncDir, PathContains: ".gen-tmp-", After: math.MaxUint64})
	_, _, err := a.SaveShardsRetain(root, 4, 0)
	syncs := faultfs.CrashOps()
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("a save fsynced its generation directory %d times, want 1", syncs)
	}
}

// TestSaveCrashRenameFailure: a save whose generation-directory rename (the
// step just before the catalog commit) fails leaves the store exactly as it
// was — the sweep clears the transaction dir and generation A still loads.
func TestSaveCrashRenameFailure(t *testing.T) {
	testSaveCrash(t, faultfs.CrashPoint{Op: faultfs.OpRename, PathContains: "gen-"})
}

// TestSaveCrashFsyncFailure: same contract when an fsync fails mid-save
// (the disk lied or died); no partial state may surface.
func TestSaveCrashFsyncFailure(t *testing.T) {
	testSaveCrash(t, faultfs.CrashPoint{Op: faultfs.OpSync})
}

// TestSaveCrashShortWrite: a power loss mid-write tears the file — half
// the bytes land. The torn file lives only in the uncommitted transaction
// dir, so recovery sweeps it with the rest of the debris.
func TestSaveCrashShortWrite(t *testing.T) {
	testSaveCrash(t, faultfs.CrashPoint{Op: faultfs.OpWrite, PathContains: "shard-", Short: true})
}

func testSaveCrash(t *testing.T, cp faultfs.CrashPoint) {
	a := buildTiny(t)
	root := t.TempDir()
	manA, _, err := a.SaveShardsRetain(root, 3, 0)
	if err != nil {
		t.Fatalf("seed save: %v", err)
	}
	restore := faultfs.InjectCrash(cp)
	_, _, saveErr := a.SaveShardsRetain(root, 3, 0)
	fired := faultfs.CrashFired()
	restore()
	if !fired {
		t.Fatal("crash point never fired")
	}
	if saveErr == nil {
		t.Fatal("crashed save reported success")
	}
	man, gen := recoverAndLoad(t, root)
	if gen != 1 || !reflect.DeepEqual(man, manA) {
		t.Fatalf("recovery after failed save: gen %d, want untouched generation 1", gen)
	}
}
