//go:build unix && !aix && !solaris

package snapstore

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// holdEnv, when set to a store root, makes the test binary a second
// process that holds something in that store — what, the one test it runs
// decides: it prints what it holds and keeps it until its standard input
// closes, then exits.
const holdEnv = "SNAPSTORE_HOLD"

// startProcess re-executes the test binary as a second process running
// the test name with holdEnv set to root, and returns the line it prints
// once it holds what it was started to hold, and stop, which closes its
// standard input and waits for it to exit.
func startProcess(t *testing.T, name, root string) (line string, stop func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$")
	cmd.Env = append(os.Environ(), holdEnv+"="+root)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	t.Cleanup(func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	line, err = bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("%s process: %v", name, err)
	}
	return strings.TrimSpace(line), func() {
		t.Helper()
		stdin.Close()
		exited = true
		if err := cmd.Wait(); err != nil {
			t.Fatalf("%s process: %v", name, err)
		}
	}
}

// TestOpenLeavesLiveSave: another process's save in flight survives every
// other writer of the store — a second Open (a publisher about to save)
// and a second writer's commit — and once its writer process is gone, the
// next Open sweeps what it left.
func TestOpenLeavesLiveSave(t *testing.T) {
	if root := os.Getenv(holdEnv); root != "" {
		holdSaveProcess(root)
		return
	}
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitGen(t, s, "alpha")

	dir, stop := startProcess(t, "TestOpenLeavesLiveSave", root)
	saved := filepath.Join(dir, "shard-0000.fz")
	if _, err := os.Stat(saved); err != nil {
		t.Fatalf("writer process did not begin its save: %v", err)
	}

	for _, step := range []string{"Open", "Open and commit"} {
		s2, err := Open(root, Options{})
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if step == "Open and commit" {
			commitGen(t, s2, "beta")
		}
		if _, err := os.Stat(saved); err != nil {
			t.Fatalf("%s deleted another process's save in flight: %v", step, err)
		}
	}

	stop()
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("the dead writer's directory should still be there: %v", err)
	}
	if _, err := Open(root, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("Open left a dead writer's save behind: %v", err)
	}
	if gens, err := ListGenerations(root); err != nil || len(gens) != 2 {
		t.Fatalf("catalog after the sweep: %+v, %v; want alpha and beta", gens, err)
	}
}

func holdSaveProcess(root string) {
	s, err := Open(root, Options{})
	if err != nil {
		os.Exit(2)
	}
	tx, err := s.Begin()
	if err != nil {
		os.Exit(2)
	}
	if err := os.WriteFile(filepath.Join(tx.Dir(), "shard-0000.fz"), []byte("shard"), 0o644); err != nil {
		os.Exit(2)
	}
	os.Stdout.WriteString(tx.Dir() + "\n")
	bufio.NewReader(os.Stdin).ReadString('\n') // until the test closes it
	os.Exit(0)                                 // dies holding the save: no Commit, no Abort
}

// TestCommitKeepsGenHeldByProcess: a generation another process holds —
// a server serving it — survives another writer's commit whose retention
// window it is past, and the first commit after that process exits drops
// it.
func TestCommitKeepsGenHeldByProcess(t *testing.T) {
	if root := os.Getenv(holdEnv); root != "" {
		holdGenProcess(root)
		return
	}
	root := t.TempDir()
	s, err := Open(root, Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	g1 := commitGen(t, s, "alpha")

	dir, stop := startProcess(t, "TestCommitKeepsGenHeldByProcess", root)
	if dir != g1.Dir {
		t.Fatalf("reader process holds %q, want %q", dir, g1.Dir)
	}
	commitGen(t, s, "beta")
	if gens, err := ListGenerations(root); err != nil || len(gens) != 2 || gens[0].ID != g1.ID {
		t.Fatalf("catalog after a commit at retain 1: %+v, %v; want the held generation kept", gens, err)
	}
	if _, err := os.Stat(filepath.Join(root, g1.Dir)); err != nil {
		t.Fatalf("a commit deleted the generation another process holds: %v", err)
	}

	stop()
	g3 := commitGen(t, s, "gamma")
	if gens, err := ListGenerations(root); err != nil || len(gens) != 1 || gens[0].ID != g3.ID {
		t.Fatalf("catalog after the reader exited: %+v, %v; want only generation %d", gens, err, g3.ID)
	}
	if _, err := os.Stat(filepath.Join(root, g1.Dir)); !os.IsNotExist(err) {
		t.Fatalf("the first commit after the reader exited left its generation: %v", err)
	}
}

func holdGenProcess(root string) {
	g, err := Lookup(root, func(g Gen) bool { return g.ID == 1 })
	if err != nil {
		os.Exit(2)
	}
	h, err := HoldGen(root, g)
	if err != nil {
		os.Exit(2)
	}
	os.Stdout.WriteString(g.Dir + "\n")
	bufio.NewReader(os.Stdin).ReadString('\n') // until the test closes it
	runtime.KeepAlive(h)                       // a collected hold would release its lock
	os.Exit(0)
}
