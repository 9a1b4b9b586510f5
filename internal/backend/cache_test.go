package backend

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"hidestore/internal/container"
	"hidestore/internal/fp"
	"hidestore/internal/recipe"
)

// cacheProbe is a Mem that counts the Gets reaching it, fails Puts while
// failPuts is set, and, when hold names a blob, parks the next Get of it
// after reading — announcing it on held — until release is closed.
type cacheProbe struct {
	*Mem
	mu       sync.Mutex
	gets     int
	failPuts bool
	hold     string
	held     chan struct{}
	release  chan struct{}
}

func newCacheProbe() *cacheProbe { return &cacheProbe{Mem: NewMem()} }

func (p *cacheProbe) Get(ctx context.Context, name string) ([]byte, error) {
	data, err := p.Mem.Get(ctx, name)
	p.mu.Lock()
	p.gets++
	hold, held, release := p.hold == name, p.held, p.release
	if hold {
		p.hold = ""
	}
	p.mu.Unlock()
	if hold {
		held <- struct{}{}
		<-release
	}
	return data, err
}

func (p *cacheProbe) Put(ctx context.Context, name string, data []byte) error {
	p.mu.Lock()
	fail := p.failPuts
	p.mu.Unlock()
	if fail {
		return fmt.Errorf("put %s: refused", name)
	}
	return p.Mem.Put(ctx, name, data)
}

// reads returns the Gets that reached p since the last call.
func (p *cacheProbe) reads() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := p.gets
	p.gets = 0
	return n
}

// holdGet parks the next Get of name; closing release lets it return.
func (p *cacheProbe) holdGet(name string) (held, release chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hold, p.held, p.release = name, make(chan struct{}, 1), make(chan struct{})
	return p.held, p.release
}

// payloadImage is image id holding one chunk of the given bytes.
func payloadImage(t *testing.T, id container.ID, payload []byte) *container.Container {
	t.Helper()
	c := container.New(id)
	if err := c.Add(fp.Of(payload), payload); err != nil {
		t.Fatal(err)
	}
	return c
}

// payloadOf returns image c's one chunk.
func payloadOf(t *testing.T, c *container.Container) []byte {
	t.Helper()
	fps := c.Fingerprints()
	if len(fps) != 1 {
		t.Fatalf("image %d holds %d chunks, want 1", c.ID(), len(fps))
	}
	data, err := c.View(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func cachedStores(budget int64) (*cacheProbe, *ContainerStore, *cacheProbe, *RecipeStore) {
	cb, rb := newCacheProbe(), newCacheProbe()
	cache := NewCache(budget)
	return cb, NewContainerStore(cb, "", false).Cached(cache), rb, NewRecipeStore(rb).Cached(cache)
}

// TestCacheBoundHolds: whatever is written and read, the decoded images
// and recipes a cache holds never cost more than its budget, and a Put
// writes through: its image is served without a backend read.
func TestCacheBoundHolds(t *testing.T) {
	const budget = 10 << 10
	cb, store, _, recipes := cachedStores(budget)
	for id := container.ID(1); id <= 40; id++ {
		if err := store.Put(payloadImage(t, id, bytes.Repeat([]byte{byte(id)}, 1000+int(id)*10))); err != nil {
			t.Fatal(err)
		}
		cb.reads()
		if _, err := store.Get(id); err != nil || cb.reads() != 0 {
			t.Fatalf("image %d right after its Put: %v, or read from the backend", id, err)
		}
		r := recipe.New(int(id))
		for i := 0; i < int(id)*3; i++ {
			r.Append(fp.FP{byte(i)}, 1, 1)
		}
		if err := recipes.Put(r); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get((id + 1) / 2); err != nil { // a read that fills
			t.Fatal(err)
		}
		if used := store.cache.objects.Used(); used > budget {
			t.Fatalf("after image %d the cache holds %d bytes, budget %d", id, used, budget)
		}
	}
	if store.cache.objects.Len() < 2 {
		t.Fatal("test degenerate: the cache held fewer than two objects")
	}
}

// TestCacheDropRules: a failed Put, Delete, Quarantine and a failed read
// through the uncached view each drop the name, so the next read goes to
// the backend and returns what is stored there, or its error. (A failed
// read through the cached view is TestCacheFillRaces' "failed read".)
func TestCacheDropRules(t *testing.T) {
	old, newer := []byte("the stored payload"), []byte("a payload never stored")
	for _, rule := range []string{"failed put", "delete", "quarantine", "failed uncached read"} {
		t.Run(rule, func(t *testing.T) {
			cb, store, _, _ := cachedStores(CacheBudget)
			if err := store.Put(payloadImage(t, 7, old)); err != nil {
				t.Fatal(err)
			}
			var want error
			switch rule {
			case "failed put":
				cb.failPuts = true
				if err := store.Put(payloadImage(t, 7, newer)); err == nil {
					t.Fatal("the refused Put returned nil")
				}
			case "delete":
				if err := store.Delete(7); err != nil {
					t.Fatal(err)
				}
				want = container.ErrNotFound
			case "quarantine":
				if _, err := store.Quarantine(7); err != nil {
					t.Fatal(err)
				}
				want = container.ErrNotFound
			case "failed uncached read":
				if err := cb.Mem.Put(context.Background(), ContainerName(7), []byte("rot")); err != nil {
					t.Fatal(err)
				}
				if _, err := UncachedContainers(store).Get(7); err == nil {
					t.Fatal("an uncached read of the rotted blob succeeded")
				}
				want = container.ErrCorrupt
			}
			cb.reads()
			c, err := store.Get(7)
			if cb.reads() != 1 {
				t.Errorf("after %s the next read was served from the cache", rule)
			}
			if want != nil {
				if !errors.Is(err, want) {
					t.Errorf("after %s: %v, want %v", rule, err, want)
				}
				return
			}
			if err != nil || !bytes.Equal(payloadOf(t, c), old) {
				t.Errorf("after %s: %v, or not the stored payload", rule, err)
			}
		})
	}
}

// TestCacheFillRaces: a read that missed and is still in flight when the
// name is written, deleted or dropped by another read's failure fills
// nothing, so the cache never serves bytes older than the last write or
// a name the store no longer holds; a read that raced nothing fills.
func TestCacheFillRaces(t *testing.T) {
	old, newer := []byte("bytes read before the race"), []byte("bytes the racing put wrote")
	for _, race := range []string{"none", "put", "delete", "failed read"} {
		t.Run(race, func(t *testing.T) {
			cb, store, _, _ := cachedStores(CacheBudget)
			if err := store.Put(payloadImage(t, 9, old)); err != nil {
				t.Fatal(err)
			}
			store.cache.drop(ContainerName(9)) // the read below misses
			held, release := cb.holdGet(ContainerName(9))
			read := make(chan *container.Container, 1)
			go func() {
				c, err := store.Get(9)
				if err != nil {
					t.Error(err)
				}
				read <- c
			}()
			<-held // the read has the old bytes and has not filled yet
			var want error
			switch race {
			case "put":
				if err := store.Put(payloadImage(t, 9, newer)); err != nil {
					t.Fatal(err)
				}
			case "delete":
				if err := store.Delete(9); err != nil {
					t.Fatal(err)
				}
				want = container.ErrNotFound
			case "failed read":
				// A second read misses too, and fails on the rotted blob.
				if err := cb.Mem.Put(context.Background(), ContainerName(9), []byte("rot")); err != nil {
					t.Fatal(err)
				}
				if _, err := store.Get(9); err == nil {
					t.Fatal("a read of the rotted blob succeeded")
				}
				want = container.ErrCorrupt
			}
			close(release)
			if c := <-read; c != nil && !bytes.Equal(payloadOf(t, c), old) {
				t.Fatal("the raced read returned other bytes than it read")
			}
			cb.reads()
			c, err := store.Get(9)
			reads := cb.reads()
			switch {
			case want != nil:
				if !errors.Is(err, want) || reads != 1 {
					t.Errorf("after the %s race: %v with %d backend reads, want %v from one", race, err, reads, want)
				}
			case race == "put":
				if err != nil || !bytes.Equal(payloadOf(t, c), newer) || reads != 0 {
					t.Errorf("after the put race: %v, %d backend reads, or not the put's bytes", err, reads)
				}
			default:
				if err != nil || !bytes.Equal(payloadOf(t, c), old) || reads != 0 {
					t.Errorf("after an unraced read: %v, %d backend reads, or not its bytes", err, reads)
				}
			}
		})
	}
}

// TestRecipeCacheHandsOutClones: a cached recipe is the one Put stored or
// a read decoded, handed out as a clone: a caller's change to what Get
// returned reaches neither the cache nor a later Get.
func TestRecipeCacheHandsOutClones(t *testing.T) {
	_, _, rb, recipes := cachedStores(CacheBudget)
	r := recipe.New(3)
	r.Append(fp.FP{1}, 10, 1)
	if err := recipes.Put(r); err != nil {
		t.Fatal(err)
	}
	for _, from := range []string{"put", "read"} {
		if from == "read" {
			recipes.cache.drop(RecipeName(3))
		}
		got, err := recipes.Get(3)
		if err != nil {
			t.Fatal(err)
		}
		got.Entries[0].CID = 99
		again, err := recipes.Get(3)
		if err != nil || again.Entries[0].CID != 1 {
			t.Fatalf("cached from a %s: %v, CID %d after a caller changed its copy; want 1", from, err, again.Entries[0].CID)
		}
	}
	if rb.reads() != 1 {
		t.Fatal("the cached recipe was not served from memory")
	}
}

// TestCacheConcurrentGets: readers of a shared cache, over both views and
// both planes, race writers, deletes and each other without a data race
// (make race runs this), and every image a read returns is one that was
// written under its ID.
func TestCacheConcurrentGets(t *testing.T) {
	_, store, _, recipes := cachedStores(16 << 10)
	payload := func(id container.ID, round int) []byte {
		return bytes.Repeat([]byte{byte(id), byte(round)}, 600)
	}
	const ids, rounds = 8, 30
	for id := container.ID(1); id <= ids; id++ {
		if err := store.Put(payloadImage(t, id, payload(id, 0))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				id := container.ID(round%ids + 1)
				var view container.Store = store
				if w == 3 {
					view = UncachedContainers(store)
				}
				c, err := view.Get(id)
				if err != nil {
					if !errors.Is(err, container.ErrNotFound) {
						t.Error(err)
					}
					continue
				}
				data := payloadOf(t, c)
				if c.ID() != id || len(data) != 1200 || data[0] != byte(id) {
					t.Errorf("image %d: read another image's bytes", id)
				}
				if _, err := recipes.Get(round%3 + 1); err != nil && !errors.Is(err, recipe.ErrNotFound) {
					t.Error(err)
				}
			}
		}(w)
	}
	for round := 1; round <= rounds; round++ {
		id := container.ID(round%ids + 1)
		if round%7 == 0 {
			if err := store.Delete(id); err != nil && !errors.Is(err, container.ErrNotFound) {
				t.Error(err)
			}
			continue
		}
		if err := store.Put(payloadImage(t, id, payload(id, round))); err != nil {
			t.Error(err)
		}
		r := recipe.New(round%3 + 1)
		r.Append(fp.FP{byte(round)}, 1, int32(id))
		if err := recipes.Put(r); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}
