package core

import (
	"bytes"
	"context"
	"testing"

	"hidestore/internal/backup/backuptest"
	"hidestore/internal/chunker"
	"hidestore/internal/container"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// BenchmarkBackup measures the end-to-end backup hot loop — pooled
// chunking, parallel fingerprinting, cache lookup, container packing,
// and commit — over a multi-version workload on the memory store.
// The sync/async split runs the commit plane inline and at its default
// width; -benchmem shows what the pooled chunk path buys.
func BenchmarkBackup(b *testing.B) {
	versions := backuptest.Materialize(b, backuptest.SmallWorkload(4, 0.2))
	var logical int64
	for _, v := range versions {
		logical += int64(len(v))
	}
	run := func(name string, asyncDepth int) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(logical)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				e, err := New(Config{
					Store:             container.NewMemStore(),
					Recipes:           recipe.NewMemStore(),
					ContainerCapacity: 64 << 10,
					ChunkParams:       chunker.Params{Min: 1024, Avg: 2048, Max: 8192},
					RestoreCache:      restorecache.NewFAA(1 << 20),
					AsyncCommitDepth:  asyncDepth,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, v := range versions {
					if _, err := e.Backup(context.Background(), bytes.NewReader(v)); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
	run("async", 0)
	run("sync", -1)
}
