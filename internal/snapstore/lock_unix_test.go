//go:build unix && !aix && !solaris

package snapstore

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// holdSaveEnv, when set to a store root, makes the test binary a writer
// process: it begins a save there, prints the save's directory, and holds
// it until its standard input closes, then exits without finishing it.
const holdSaveEnv = "SNAPSTORE_HOLD_SAVE"

// TestOpenLeavesLiveSave: another process's save in flight survives every
// other writer of the store — a second Open (a server starting, or a
// publisher about to save) and a second writer's commit — and once its
// writer process is gone, the next Open sweeps what it left.
func TestOpenLeavesLiveSave(t *testing.T) {
	if root := os.Getenv(holdSaveEnv); root != "" {
		holdSaveProcess(root)
		return
	}
	root := t.TempDir()
	s, err := Open(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commitGen(t, s, "alpha")

	writer := exec.Command(os.Args[0], "-test.run=^TestOpenLeavesLiveSave$")
	writer.Env = append(os.Environ(), holdSaveEnv+"="+root)
	stdin, err := writer.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := writer.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := writer.Start(); err != nil {
		t.Fatal(err)
	}
	defer writer.Process.Kill()
	dir, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatalf("writer process: %v", err)
	}
	dir = strings.TrimSpace(dir)
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

	stdin.Close()
	if err := writer.Wait(); err != nil {
		t.Fatalf("writer process: %v", err)
	}
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
