package backup_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"hidestore/internal/backup"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/obs"
	"hidestore/internal/recipe"
)

// TestAssemblyWidthFollowsGOMAXPROCS: a restore assembles serially on one
// CPU and on min(GOMAXPROCS, 4) span workers above that, and at every
// width the restored bytes and each version's container reads are the
// serial assembler's.
func TestAssemblyWidthFollowsGOMAXPROCS(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(4, 0))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var serialReads []uint64
	for _, tc := range []struct{ procs, width int }{{1, 1}, {2, 2}, {16, 4}} {
		t.Run(fmt.Sprintf("procs%d", tc.procs), func(t *testing.T) {
			runtime.GOMAXPROCS(tc.procs)
			if got := backup.AssemblyWidth(); got != tc.width {
				t.Fatalf("GOMAXPROCS %d: assembly width %d, want %d", tc.procs, got, tc.width)
			}
			reg := obs.NewRegistry()
			e, err := core.New(core.Config{
				Store: container.NewMemStore(), Recipes: recipe.NewMemStore(), ContainerCapacity: 64 << 10, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			backuptest.BackupAll(t, e, versions)
			var reads []uint64
			for v := len(versions); v >= 1; v-- {
				var buf bytes.Buffer
				rep, err := e.Restore(context.Background(), v, &buf)
				if err != nil {
					t.Fatalf("restore v%d: %v", v, err)
				}
				if !bytes.Equal(buf.Bytes(), versions[v-1]) {
					t.Fatalf("v%d: restored bytes differ from the original", v)
				}
				reads = append(reads, rep.Stats.ContainerReads)
			}
			spans := reg.Snapshot().Counters["hidestore_restore_assembly_spans_total"].Value
			if parallel := spans > 0; parallel != (tc.width > 1) {
				t.Errorf("width %d: %d spans went through the parallel assembler", tc.width, spans)
			}
			if serialReads == nil {
				serialReads = reads
			} else if fmt.Sprint(reads) != fmt.Sprint(serialReads) {
				t.Errorf("container reads newest → oldest %v, serial %v", reads, serialReads)
			}
		})
	}
}
