package backup_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidestore/internal/backend"
	"hidestore/internal/backup/backuptest"
	"hidestore/internal/container"
	"hidestore/internal/core"
	"hidestore/internal/recipe"
	"hidestore/internal/restorecache"
)

// A plain restore with read-ahead on starts store reads of the archival
// images its stored recipe names before the engine resolves it (DESIGN.md,
// "Restore driver"). These tests pin when that happens and when it does
// not; TestStoreReadsEqualCountedReads pins that it changes no count.

// eventLog records, in order, the reads a restore's policy asks for and
// the ones the store serves.
type eventLog struct {
	mu     sync.Mutex
	events []string
}

func (l *eventLog) add(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, fmt.Sprintf(format, args...))
}

// askingCache logs every container read its policy asks for.
type askingCache struct {
	restorecache.Cache
	log *eventLog
}

// Restore implements restorecache.Cache.
func (c askingCache) Restore(ctx context.Context, entries []recipe.Entry, fetch restorecache.Fetcher, w io.Writer) (restorecache.Stats, error) {
	return c.Cache.Restore(ctx, entries, askingFetcher{fetch, c.log}, w)
}

type askingFetcher struct {
	restorecache.Fetcher
	log *eventLog
}

// Get implements restorecache.Fetcher.
func (f askingFetcher) Get(ctx context.Context, id container.ID) (*container.Container, error) {
	f.log.add("ask %d", id)
	return f.Fetcher.Get(ctx, id)
}

// watchedStore logs the reads it serves, tells first about the first
// one, holds each read for delay, and counts the reads in flight.
type watchedStore struct {
	container.Store
	log      *eventLog
	delay    time.Duration
	first    chan struct{}
	once     sync.Once
	inflight atomic.Int64
}

// Get implements container.Store.
func (s *watchedStore) Get(id container.ID) (*container.Container, error) {
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	s.once.Do(func() { close(s.first) })
	time.Sleep(s.delay)
	c, err := s.Store.Get(id)
	s.log.add("read %d", id)
	return c, err
}

// probedRecipes runs probe when version at is read: for a restore of
// at−1, that is its resolve hook reading the first newer recipe.
type probedRecipes struct {
	recipe.Store
	at    int
	probe func()
}

// Get implements recipe.Store.
func (p *probedRecipes) Get(version int) (*recipe.Recipe, error) {
	rec, err := p.Store.Get(version)
	if version == p.at && p.probe != nil {
		p.probe()
	}
	return rec, err
}

// earlyEngine backs up every version on a HiDeStore engine and returns a
// second one opened over the same stores and state, through a watched
// container store and probed recipes, whose policy logs its asks. The
// second engine keeps nothing in memory yet, so a walk through the chain
// reaches both stores: the cold path these tests pin.
func earlyEngine(t *testing.T, versions [][]byte, depth int, delay time.Duration) (*core.Engine, *watchedStore, *probedRecipes, *eventLog) {
	t.Helper()
	log := &eventLog{}
	containers, stored := container.NewMemStore(), recipe.NewMemStore()
	cfg := core.Config{
		Store: containers, Recipes: stored, State: backend.NewMem(), ContainerCapacity: 64 << 10, PrefetchDepth: depth,
		RestoreCache: askingCache{restorecache.NewFAA(0), log},
	}
	e, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backuptest.BackupAll(t, e, versions)
	store := &watchedStore{Store: containers, log: log, first: make(chan struct{})}
	recipes := &probedRecipes{Store: stored}
	cfg.Store, cfg.Recipes = store, recipes
	if e, err = core.New(cfg); err != nil {
		t.Fatal(err)
	}
	// Opening reloaded the active images through store: watch only what
	// comes after.
	store.delay, store.first, store.once = delay, make(chan struct{}), sync.Once{}
	log.events = nil
	return e, store, recipes, log
}

// TestEarlyReadsOnlyOnPlainReadAhead restores the oldest version, whose
// forward pointers lead into newer recipes, and looks at the container
// store while the resolve hook reads the first of them. A plain restore
// with read-ahead has started reading by then. A serial one has not, and
// every store read it makes follows the policy's ask for that image; a
// verifying restore has not either. On the engine that made the backups
// the walk reads no recipe from the store at all: it kept them.
func TestEarlyReadsOnlyOnPlainReadAhead(t *testing.T) {
	versions := backuptest.Materialize(t, backuptest.SmallWorkload(8, 0))
	t.Run("warm", func(t *testing.T) {
		recipes := &probedRecipes{Store: recipe.NewMemStore(), at: 2}
		e, err := core.New(core.Config{Store: container.NewMemStore(), Recipes: recipes, ContainerCapacity: 64 << 10})
		if err != nil {
			t.Fatal(err)
		}
		backuptest.BackupAll(t, e, versions)
		probed := false
		recipes.probe = func() { probed = true }
		if rep := backuptest.CheckRestoreOne(t, e, 1, versions[0]); probed || rep.RecipesRead < 2 {
			t.Errorf("restore v1 read %d recipes, v2 from the store %t; want a walk through kept recipes", rep.RecipesRead, probed)
		}
	})
	for _, mode := range []string{"plain", "serial", "verify"} {
		t.Run(mode, func(t *testing.T) {
			depth := 0
			if mode == "serial" {
				depth = -1
			}
			e, store, recipes, log := earlyEngine(t, versions, depth, 0)
			wait := 50 * time.Millisecond // long enough for a memory read to start
			if mode == "plain" {
				wait = 10 * time.Second // the read is expected: wait for it
			}
			probed, early := false, false
			recipes.at, recipes.probe = 2, func() {
				probed = true
				select {
				case <-store.first:
					early = true
				case <-time.After(wait):
				}
			}
			restore := e.Restore
			if mode == "verify" {
				restore = e.VerifyRestore
			}
			var buf bytes.Buffer
			rep, err := restore(context.Background(), 1, &buf)
			if err != nil || !bytes.Equal(buf.Bytes(), versions[0]) {
				t.Fatalf("restore v1: %v, or the bytes differ", err)
			}
			if !probed || rep.RecipesRead < 2 {
				t.Fatalf("restore v1 read %d recipes and never v2: no resolve to look into", rep.RecipesRead)
			}
			if early != (mode == "plain") {
				t.Errorf("a container read reached the store while resolve ran: %t, want %t", early, mode == "plain")
			}
			if mode != "serial" {
				return
			}
			var asked string
			for _, ev := range log.events {
				var id int
				if _, err := fmt.Sscanf(ev, "read %d", &id); err == nil && asked != fmt.Sprintf("ask %d", id) {
					t.Fatalf("the store served %q after %q: a serial restore read before its policy asked", ev, asked)
				}
				asked = ev
			}
		})
	}
}

// cancelledRestoreLeavesNothing is TestStoreReadsEqualCountedReads's
// cancellation case: a plain restore cancelled while its resolve hook
// reads the first newer recipe, with its early reads held in flight at
// the store, returns the context's error only once none is left running,
// and the next restore of that version reads from the store and from
// memory what an engine that never saw the cancelled one does.
func cancelledRestoreLeavesNothing(t *testing.T, versions [][]byte) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, store, recipes, _ := earlyEngine(t, versions, 0, 20*time.Millisecond)
	started := false
	recipes.at, recipes.probe = 2, func() {
		select {
		case <-store.first: // an early read is in flight
			started = true
		case <-time.After(10 * time.Second):
		}
		cancel()
	}
	_, err := e.Restore(ctx, 1, io.Discard)
	if !started || !errors.Is(err, context.Canceled) {
		t.Fatalf("restore v1: %v after early reads started %t, want it cancelled with reads in flight", err, started)
	}
	if n := store.inflight.Load(); n != 0 {
		t.Fatalf("%d store reads still running after Restore returned", n)
	}
	recipes.probe = nil
	split := func(e *core.Engine, store *watchedStore) string {
		log := len(store.log.events)
		rep, err := e.Restore(context.Background(), 1, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		reads := 0
		for _, ev := range store.log.events[log:] {
			if ev[:4] == "read" {
				reads++
			}
		}
		return fmt.Sprintf("%d from the store, %d from memory of %d", reads, rep.ResidentReads, rep.Stats.ContainerReads)
	}
	got := split(e, store)
	other, otherStore, _, _ := earlyEngine(t, versions, 0, 0)
	if want := split(other, otherStore); got != want {
		t.Errorf("restore v1 after the cancelled one: %s; without it: %s", got, want)
	}
}
