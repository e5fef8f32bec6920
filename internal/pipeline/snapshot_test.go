package pipeline

import (
	"bytes"
	"reflect"
	"testing"

	"alicoco/internal/core"
)

func TestArtifactsSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	var buf bytes.Buffer
	if err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if b.Net != nil || b.World != nil || b.Corpus != nil {
		t.Fatal("loaded artifacts should be serving-only")
	}
	if b.Frozen.NumNodes() != a.Frozen.NumNodes() || b.Frozen.NumEdges() != a.Frozen.NumEdges() {
		t.Fatalf("frozen counts differ: %d/%d nodes, %d/%d edges",
			b.Frozen.NumNodes(), a.Frozen.NumNodes(), b.Frozen.NumEdges(), a.Frozen.NumEdges())
	}
	if !reflect.DeepEqual(a.PrimNode, b.PrimNode) || !reflect.DeepEqual(a.FrameNode, b.FrameNode) ||
		!reflect.DeepEqual(a.ItemNode, b.ItemNode) || !reflect.DeepEqual(a.DomainCls, b.DomainCls) {
		t.Fatal("node maps differ after round trip")
	}
	if !reflect.DeepEqual(a.Serving, b.Serving) {
		t.Fatal("serving metadata differs after round trip")
	}
	// Spot-check real queries answer identically on the loaded net.
	for _, ec := range a.Frozen.NodesOfKind(core.KindEConcept)[:5] {
		la, lb := a.Frozen.ItemsForEConcept(ec, 10), b.Frozen.ItemsForEConcept(ec, 10)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
		}
	}
	for _, p := range a.Frozen.NodesOfKind(core.KindPrimitive)[:5] {
		if !reflect.DeepEqual(a.Frozen.Ancestors(p, 0), b.Frozen.Ancestors(p, 0)) {
			t.Fatalf("Ancestors(%d) differs after round trip", p)
		}
	}
}

func TestLoadSnapshotRejectsCorruptHeader(t *testing.T) {
	a := buildTiny(t)
	var buf bytes.Buffer
	if err := a.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	bad := append([]byte(nil), full...)
	copy(bad, "XXXX")
	if _, err := LoadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, err := LoadSnapshot(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}

	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if _, err := LoadSnapshot(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
}

func TestSaveSnapshotRequiresFrozen(t *testing.T) {
	a := &Artifacts{}
	var buf bytes.Buffer
	if err := a.SaveSnapshot(&buf); err == nil {
		t.Fatal("snapshot of artifacts without a frozen net should error")
	}
}
