package core

import (
	"bytes"
	"context"
	"io"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/recipe"
	"hidestore/internal/workload"
)

// TestAnalyzeLayoutDoesNotMutateRecipes: Restore resolves old versions
// by *persisting* flattened recipes (Algorithm 1); AnalyzeLayout must
// resolve the same chains read-only. After analyzing an old version
// whose recipe still holds forward pointers, the stored recipes are
// bit-identical — and a subsequent real restore still works and agrees
// with the analysis.
func TestAnalyzeLayoutDoesNotMutateRecipes(t *testing.T) {
	g, err := workload.New(workload.Config{
		Name: "analyze-mut", Versions: 4, Files: 8, BlocksPerFile: 20,
		BlockSize: 4096, ModifyRate: 0.10, InsertRate: 0.01,
		DeleteRate: 0.005, FileChurn: 0.03, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Store:             container.NewMemStore(),
		Recipes:           recipe.NewMemStore(),
		ContainerCapacity: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	n := 0
	for g.HasNext() {
		r, err := g.NextVersion()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Backup(ctx, r); err != nil {
			t.Fatal(err)
		}
		n++
	}

	snapshot := func() map[int][]recipe.Entry {
		out := make(map[int][]recipe.Entry)
		for v := 1; v <= n; v++ {
			rec, err := e.cfg.Recipes.Get(v)
			if err != nil {
				t.Fatal(err)
			}
			out[v] = append([]recipe.Entry(nil), rec.Entries...)
		}
		return out
	}
	before := snapshot()
	var forwards int
	for _, entry := range before[1] {
		if entry.CID < 0 {
			forwards++
		}
	}
	if forwards == 0 {
		t.Fatal("test degenerate: version 1 has no forward pointers to resolve")
	}

	rep, err := e.AnalyzeLayout(ctx, 1, []string{"faa"})
	if err != nil {
		t.Fatal(err)
	}
	after := snapshot()
	for v := 1; v <= n; v++ {
		if !bytes.Equal(entryBytes(before[v]), entryBytes(after[v])) {
			t.Fatalf("analysis mutated recipe v%d", v)
		}
	}

	// The real restore (which does flatten and persist) must agree.
	real, err := e.Restore(ctx, 1, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policies[0].ContainerReads != real.Stats.ContainerReads {
		t.Fatalf("analysis %d reads, restore %d", rep.Policies[0].ContainerReads, real.Stats.ContainerReads)
	}
	// And the restore's flattening must be observable — otherwise the
	// mutation check above checks nothing.
	flattened := snapshot()
	changed := false
	for v := 1; v <= n; v++ {
		if !bytes.Equal(entryBytes(before[v]), entryBytes(flattened[v])) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("restore flattened nothing; mutation check is vacuous")
	}
}

func entryBytes(entries []recipe.Entry) []byte {
	var buf bytes.Buffer
	for _, e := range entries {
		buf.Write(e.FP[:])
		buf.WriteByte(byte(e.Size))
		buf.WriteByte(byte(e.Size >> 8))
		buf.WriteByte(byte(e.Size >> 16))
		buf.WriteByte(byte(e.Size >> 24))
		buf.WriteByte(byte(e.CID))
		buf.WriteByte(byte(e.CID >> 8))
		buf.WriteByte(byte(e.CID >> 16))
		buf.WriteByte(byte(e.CID >> 24))
	}
	return buf.Bytes()
}
