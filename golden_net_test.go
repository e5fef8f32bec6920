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

// TestServedAdjacencyIndexSize: on the partition the benchmark serves (the
// laptop-scale net in four shards, saved and loaded back), the index that
// locates each node's edges costs at most 12 bytes per node and direction,
// group starts included. A dense offset per (node, edge kind) pair would
// cost 24.
func TestServedAdjacencyIndexSize(t *testing.T) {
	built, err := BuildSharded(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := built.SaveShards(dir, 4); err != nil {
		t.Fatal(err)
	}
	c, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	nodes, size := 0, 0
	for _, sh := range c.Internal().Shards {
		nodes += sh.NumNodes()
		size += sh.AdjacencyIndexBytes()
	}
	perNode := float64(size) / float64(2*nodes)
	t.Logf("%d nodes: adjacency index %d bytes, %.2f bytes per node and direction", nodes, size, perNode)
	if perNode > 12 {
		t.Fatalf("adjacency index takes %.2f bytes per node and direction, want at most 12", perNode)
	}
}

// TestServedEdgeRecordsSize: on the same served partition, the edge
// records of both directions cost at most 8 bytes per half-edge, counted
// by capacity, so a wider record or an edge slice reserved past its
// records fails.
func TestServedEdgeRecordsSize(t *testing.T) {
	built, err := BuildSharded(Default(), 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := built.SaveShards(dir, 4); err != nil {
		t.Fatal(err)
	}
	c, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	halfEdges, size := 0, 0
	for _, sh := range c.Internal().Shards {
		// Summed over the partition, the out and the in direction each
		// hold one half-edge per edge.
		halfEdges += 2 * sh.NumEdges()
		size += sh.EdgeRecordBytes()
	}
	perHalfEdge := float64(size) / float64(halfEdges)
	t.Logf("%d half-edges: edge records %d bytes, %.2f bytes per half-edge", halfEdges, size, perHalfEdge)
	if perHalfEdge > 8 {
		t.Fatalf("edge records take %.2f bytes per half-edge, want at most 8", perHalfEdge)
	}
}
