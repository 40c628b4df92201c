package vbtree

import (
	"bytes"
	"testing"
)

// TestAnchorRootPinsEnvelope proves the property sharded verification
// rests on: with Query.AnchorRoot the VO's enveloping subtree is the
// whole tree, so the top digest recovers to the root digest — even for
// a narrow query whose minimal envelope would sit several levels down.
func TestAnchorRootPinsEnvelope(t *testing.T) {
	h := newHarness(t, 300, 1024)
	height := h.tree.Height()
	if height < 2 {
		t.Fatalf("need a multi-level tree, height = %d", height)
	}

	narrow := Query{Lo: i64(42), Hi: i64(43)}

	// Without anchoring, a two-tuple query envelopes a low subtree.
	rs, w := h.query(t, narrow)
	if len(rs.Tuples) != 2 {
		t.Fatalf("got %d tuples, want 2", len(rs.Tuples))
	}
	if int(w.TopLevel) == height {
		t.Skip("minimal envelope already at the root; tree too small to distinguish")
	}

	narrow.AnchorRoot = true
	rsA, wA := h.query(t, narrow)
	if len(rsA.Tuples) != 2 {
		t.Fatalf("anchored query got %d tuples, want 2", len(rsA.Tuples))
	}
	if int(wA.TopLevel) != height {
		t.Fatalf("anchored TopLevel = %d, want tree height %d", wA.TopLevel, height)
	}
	if !bytes.Equal(wA.TopDigest, h.tree.RootSig()) {
		t.Fatal("anchored TopDigest is not the root signature")
	}
	// The anchored VO still verifies with the standard verifier.
	h.mustVerify(t, rsA, wA)

	// And the recovered top digest equals Tree.RootDigest — the exact
	// comparison the client performs against the signed shard map.
	rd, err := h.tree.RootDigest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.key.Public().Recover(wA.TopDigest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rd, got) {
		t.Fatal("recovered top digest differs from Tree.RootDigest")
	}

	// An anchored empty result also verifies (the whole tree proves the
	// range holds nothing).
	empty := Query{Lo: i64(100_000), Hi: i64(100_010), AnchorRoot: true}
	rsE, wE := h.query(t, empty)
	if len(rsE.Tuples) != 0 {
		t.Fatalf("expected empty result, got %d tuples", len(rsE.Tuples))
	}
	if int(wE.TopLevel) != height {
		t.Fatalf("empty anchored TopLevel = %d, want %d", wE.TopLevel, height)
	}
	h.mustVerify(t, rsE, wE)
}
