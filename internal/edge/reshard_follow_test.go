package edge

import (
	"context"
	"testing"

	"edgeauth/internal/central"
	"edgeauth/internal/client"
	"edgeauth/internal/query"
	"edgeauth/internal/schema"
)

// TestRefreshFollowsSplitWithoutRepull is the edge half of the online
// resharding contract: when the central splits a shard, the next
// refresh tick re-binds the unaffected shards' stores against the new
// signed map (no re-transfer) and snapshot-installs only the two
// shards the split created. The replica is never flagged diverged, so
// there is no client-visible stale-replica window.
func TestRefreshFollowsSplitWithoutRepull(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 4})
	eg := New(centralAddr)
	t.Cleanup(func() { eg.Close() })
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	edgeAddr := startEdge(t, eg)
	cl, err := client.Dial(ctx, client.Config{EdgeAddr: edgeAddr, CentralAddr: centralAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.FetchTrustedKey(ctx); err != nil {
		t.Fatal(err)
	}

	base := eg.Stats()
	if _, err := srv.SplitShard(ctx, "items", 0, nil); err != nil {
		t.Fatal(err)
	}
	st, err := eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatalf("refresh across a split: %v", err)
	}
	if st.Mode != "snapshot" {
		t.Fatalf("refresh mode = %q, want snapshot (new shards installed)", st.Mode)
	}
	if n, _ := eg.NumShards("items"); n != 5 {
		t.Fatalf("edge serves %d shards after split, want 5", n)
	}
	rep := eg.replica("items")
	if rep.diverged.Load() {
		t.Fatal("split flagged the replica diverged; carried shards must re-bind, not invalidate")
	}
	after := eg.Stats()
	if got := after.ReshardsApplied - base.ReshardsApplied; got != 1 {
		t.Fatalf("reshards_applied advanced by %d, want 1", got)
	}
	// Only the split's two children were transferred; the three
	// unaffected shards carried their stores over untouched.
	if got := after.SnapshotsInstalled - base.SnapshotsInstalled; got != 2 {
		t.Fatalf("split installed %d snapshots, want exactly the 2 new shards", got)
	}

	// The published set is internally consistent: map pins == stores.
	set := rep.set.Load()
	if got := set.smap.Map.MapEpoch; got != 2 {
		t.Fatalf("published map epoch %d, want 2", got)
	}
	for i, sr := range set.shards {
		if set.smap.Map.Shards[i].Version != sr.state.Version {
			t.Fatalf("shard %d: map pins v%d, store at v%d", i, set.smap.Map.Shards[i].Version, sr.state.Version)
		}
	}

	// A verified scatter-gather over the edge still sees every row.
	res, err := cl.Query(ctx, "items", []query.Predicate{
		{Column: "id", Op: query.OpGE, Value: schema.Int64(0)},
	}, nil)
	if err != nil {
		t.Fatalf("verified query after split: %v", err)
	}
	if len(res.Result.Tuples) != 400 {
		t.Fatalf("post-split scan returned %d tuples, want 400", len(res.Result.Tuples))
	}

	// Merge the pair back: one new shard snapshot, everything else
	// carried, still no divergence.
	mid := eg.Stats()
	if _, err := srv.MergeShards(ctx, "items", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := eg.Refresh(ctx, "items"); err != nil {
		t.Fatalf("refresh across a merge: %v", err)
	}
	if n, _ := eg.NumShards("items"); n != 4 {
		t.Fatalf("edge serves %d shards after merge, want 4", n)
	}
	if rep.diverged.Load() {
		t.Fatal("merge flagged the replica diverged")
	}
	end := eg.Stats()
	if got := end.SnapshotsInstalled - mid.SnapshotsInstalled; got != 1 {
		t.Fatalf("merge installed %d snapshots, want exactly the 1 merged shard", got)
	}

	// Ordinary incremental refresh still works on the post-transition
	// partition: one insert ships one shard delta.
	if err := srv.Insert("items", freshRow(t, 500_000)); err != nil {
		t.Fatal(err)
	}
	st, err = eg.Refresh(ctx, "items")
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode != "delta" || st.ShardsRefreshed != 1 {
		t.Fatalf("post-reshard refresh: mode=%q shards=%d, want delta/1", st.Mode, st.ShardsRefreshed)
	}
}

// TestShiftedSiblingDeltaRejected: the two children of a split are born
// at one version, and a merge to their left shifts the surviving child
// into its retired sibling's position. An edge still routing on the
// older map then asks that position for a delta from the sibling's
// version — and the central answers with the survivor's history. The
// shard ref signed into every delta names the shard's stable ID, so the
// edge refuses the delta instead of splicing another shard's pages into
// its store.
func TestShiftedSiblingDeltaRejected(t *testing.T) {
	ctx := context.Background()
	srv, centralAddr := startCentralOpts(t, 400, central.Options{PageSize: 1024, Shards: 2})
	eg := New(centralAddr)
	t.Cleanup(func() { eg.Close() })
	if _, err := srv.SplitShard(ctx, "items", 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := eg.PullAll(ctx); err != nil {
		t.Fatal(err)
	}
	old := eg.replica("items").set.Load()
	if len(old.shards) != 3 || old.smap.Map.Shards[1].Version != old.smap.Map.Shards[2].Version {
		t.Fatalf("split children: %+v, want three shards with siblings at one version", old.smap.Map.Shards)
	}
	sibling := old.shards[1].store
	head := old.shards[1].state

	// The right child commits (its changelog now covers the shared birth
	// version), then the merge of positions 0 and 1 retires the left
	// child and shifts the right one into position 1.
	if err := srv.Insert("items", freshRow(t, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.MergeShards(ctx, "items", 0); err != nil {
		t.Fatal(err)
	}

	if _, _, _, err := eg.refreshShard(ctx, "items", sibling, 1, head, old.smap); err == nil {
		t.Fatal("the shifted sibling's delta was applied to the retired shard's store")
	}
	if st, err := storeState(sibling); err != nil || st.Version != head.Version || st.Root != head.Root {
		t.Fatalf("store moved from v%d to %+v (%v)", head.Version, st, err)
	}
}
