package alicoco

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestGoldenNetPin pins the served net byte for byte: it builds the
// laptop-scale net as four shards, saves them, and compares the manifest's
// per-shard and meta checksums with testdata/golden_net.txt. Any change to
// what the pipeline builds, how it freezes, or how shards serialize moves a
// checksum. A deliberate change re-records the file from the "got" block
// this test prints.
func TestGoldenNetPin(t *testing.T) {
	c, err := BuildSharded(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	man, err := c.SaveShards(t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	fmt.Fprintf(&got, "nodes %d edges %d\n", man.TotalNodes, man.TotalEdges)
	fmt.Fprintf(&got, "%s %08x\n", man.MetaFile, man.MetaChecksum)
	for _, s := range man.Shards {
		fmt.Fprintf(&got, "%s %08x nodes %d edges %d\n", s.File, s.Checksum, s.Nodes, s.Edges)
	}
	want, err := os.ReadFile("testdata/golden_net.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("served net drifted from testdata/golden_net.txt\ngot:\n%swant:\n%s", got.String(), want)
	}
}
