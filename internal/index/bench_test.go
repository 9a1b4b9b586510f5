package index_test

import (
	"strconv"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/fp"
	"hidestore/internal/index"
	"hidestore/internal/index/ddfs"
	"hidestore/internal/index/silo"
	"hidestore/internal/index/sparse"
)

// benchIndexes builds production-default indexes for throughput benches.
func benchIndexes(b *testing.B) map[string]index.Index {
	b.Helper()
	d, err := ddfs.New(ddfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sp, err := sparse.New(sparse.Options{})
	if err != nil {
		b.Fatal(err)
	}
	si, err := silo.New(silo.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return map[string]index.Index{
		"ddfs": d, "sparse": sp, "silo": si,
		"hidestore": core.NewIndexView(1),
	}
}

// BenchmarkIndexDedup measures classification throughput on a stream that
// repeats the previous version (the realistic hot path: ~all duplicates).
func BenchmarkIndexDedup(b *testing.B) {
	const segChunks = 1024
	seg := make([]index.ChunkRef, segChunks)
	cids := make([]container.ID, segChunks)
	for i := range seg {
		seg[i] = index.ChunkRef{FP: fp.Of([]byte("bench-" + strconv.Itoa(i))), Size: 4096}
		cids[i] = container.ID(i/256 + 1)
	}
	for name, ix := range benchIndexes(b) {
		b.Run(name, func(b *testing.B) {
			ix.Dedup(seg)
			ix.Commit(seg, cids)
			ix.EndVersion()
			b.SetBytes(segChunks * 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ix.Dedup(seg)
			}
		})
	}
}
