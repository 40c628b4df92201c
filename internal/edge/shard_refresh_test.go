package edge

import (
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/wire"
)

// TestShardedRefreshAndPull covers the per-shard replication path: a
// sharded central replicates shard by shard, a commit ships only the
// touched shard's delta, and the published set's map always pins
// exactly the shard versions it is served with.
func TestShardedRefreshAndPull(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _ := eg.NumShards("items"); n != 4 {
		t.Fatalf("replicated %d shards, want 4", n)
	}

	// One insert dirties one shard; the refresh ships one shard delta.
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delta" || st.ShardsRefreshed != 1 {
		t.Fatalf("refresh after one insert: mode=%q shards=%d, want delta/1", st.Mode, st.ShardsRefreshed)
	}

	// The published set is internally consistent: map pins == pinned
	// shard snapshot versions.
	rep := eg.replica("items")
	set := rep.set.Load()
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, snapshot at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}

	// Idle tick: noop.
	st, err = eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "noop" || st.ShardsRefreshed != 0 {
		t.Fatalf("idle refresh: mode=%q shards=%d", st.Mode, st.ShardsRefreshed)
	}
}

// TestShardedRefreshRecoversFromPartialFailure pins the wedge fix: a
// refresh that applied a shard's delta but failed before republishing
// the set leaves the store AHEAD of the published set. The next refresh
// must negotiate from the store's head (not the pinned set) and
// converge, instead of requesting a delta the store rejects forever.
func TestShardedRefreshRecoversFromPartialFailure(t *testing.T) {
	ctx := context.Background()
	srv, addr := startCentralOpts(t, 200, central.Options{PageSize: 1024, Shards: 2})
	eg := New(addr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}

	// Commit to shard 1 (key above the boundary).
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}

	// Simulate the partial failure: apply shard 1's delta directly into
	// its store WITHOUT republishing the tableSet — exactly the state a
	// refresh error after applyDelta leaves behind.
	rep := eg.replica("items")
	cur := rep.set.Load()
	head := cur.shards[1].state
	d, err := srv.ShardDelta("items", 1, head.Version, head.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if d.SnapshotNeeded {
		t.Fatal("expected a shard delta")
	}
	if err := applyDelta(cur.shards[1].store, d, wire.ShardRef("items", cur.smap.Map.Shards[1].ID)); err != nil {
		t.Fatal(err)
	}
	// Sanity: the store is now ahead of the published set.
	if hs, _ := storeState(cur.shards[1].store); hs.Version != head.Version+1 {
		t.Fatalf("store head at v%d, want v%d", hs.Version, head.Version+1)
	}

	// The next refresh must converge (publishing the set the store is
	// already at), not wedge on a version mismatch.
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh after partial failure wedged: %v", err)
	}
	if st.Mode == "snapshot" {
		t.Fatalf("recovery forced a snapshot; a set republish sufficed (mode=%q)", st.Mode)
	}
	set := rep.set.Load()
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, snapshot at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}
	cv, err := srv.Version("items")
	if err != nil {
		t.Fatal(err)
	}
	if ev, _ := eg.Version("items"); ev != cv {
		t.Fatalf("edge at map v%d, central at v%d", ev, cv)
	}

	// And a further ordinary commit still refreshes normally.
	if err := srv.Insert("items", freshRow(t, 500_001)); err != nil {
		t.Fatal(err)
	}
	if st, err := eg.Refresh(ctx, "items"); err != nil || st.Mode != "delta" {
		t.Fatalf("post-recovery refresh: mode=%q err=%v", st.Mode, err)
	}
}
