package hidestore

import (
	"bytes"
	"context"
	"testing"

	"hidestore/internal/obs"
)

// TestStageChunkAccountingWithLanes pins the stage-accounting identity
// under concurrent chunking and sharded index lookups: with multiple
// chunking lanes and a sharded fingerprint cache, each per-version
// stage record (stage.chunking, stage.fingerprint, stage.index_lookup)
// must still account for exactly the chunks the backup reports — lane
// and shard contributions are summed at snapshot, never double-counted
// or dropped.
func TestStageChunkAccountingWithLanes(t *testing.T) {
	versions := testVersions(t, 3)
	var traceBuf bytes.Buffer
	tracer := obs.NewTracer(&traceBuf)
	sys, err := Open(Config{Metrics: obs.NewRegistry(), Tracer: tracer, ChunkLanes: 3, IndexShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var chunks int64
	for _, v := range versions {
		rep, err := sys.Backup(ctx, bytes.NewReader(v))
		if err != nil {
			t.Fatal(err)
		}
		chunks += int64(rep.Chunks)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if chunks == 0 {
		t.Fatal("test degenerate: no chunks backed up")
	}

	sum, err := obs.SummarizeTrace(bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]bool{"stage.chunking": false, "stage.fingerprint": false, "stage.index_lookup": false}
	for _, st := range sum.Stages {
		if _, ok := stages[st.Name]; !ok {
			continue
		}
		stages[st.Name] = true
		if st.Chunks != chunks {
			t.Errorf("%s accounts for %d chunks, backups reported %d", st.Name, st.Chunks, chunks)
		}
		if st.Count != len(versions) {
			t.Errorf("%s has %d records, want one per version (%d)", st.Name, st.Count, len(versions))
		}
		if st.Total <= 0 {
			t.Errorf("%s reports no time", st.Name)
		}
	}
	for name, seen := range stages {
		if !seen {
			t.Errorf("trace lacks %s records", name)
		}
	}
}

// TestLanesShardsBitIdenticalBackups pins end-to-end transparency: a
// multi-lane, sharded-index system and a sequential single-shard system
// fed the same versions must report identical chunk/byte accounting and
// restore byte-identical streams.
func TestLanesShardsBitIdenticalBackups(t *testing.T) {
	versions := testVersions(t, 3)
	type result struct {
		chunks   []int
		stored   []uint64
		restored [][]byte
	}
	run := func(lanes, shards int) result {
		sys, err := Open(Config{ChunkLanes: lanes, IndexShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var res result
		for _, v := range versions {
			rep, err := sys.Backup(ctx, bytes.NewReader(v))
			if err != nil {
				t.Fatal(err)
			}
			res.chunks = append(res.chunks, rep.Chunks)
			res.stored = append(res.stored, rep.StoredBytes)
		}
		for i := range versions {
			var out bytes.Buffer
			if _, err := sys.Restore(ctx, i+1, &out); err != nil {
				t.Fatal(err)
			}
			res.restored = append(res.restored, out.Bytes())
		}
		return res
	}
	seq := run(1, 1)
	par := run(4, 8)
	for i := range versions {
		if seq.chunks[i] != par.chunks[i] || seq.stored[i] != par.stored[i] {
			t.Errorf("v%d accounting diverged: sequential %d chunks/%d stored, parallel %d/%d",
				i+1, seq.chunks[i], seq.stored[i], par.chunks[i], par.stored[i])
		}
		if !bytes.Equal(seq.restored[i], par.restored[i]) {
			t.Errorf("v%d restore bytes diverged between sequential and parallel systems", i+1)
		}
		if !bytes.Equal(par.restored[i], versions[i]) {
			t.Errorf("v%d parallel restore does not match the original", i+1)
		}
	}
}
