package backend

import (
	"sync"

	"hidestore/internal/lru"
)

// CacheBudget bounds the decoded container images and recipes one
// system's stores hold in a Cache, counted in payload bytes and decoded
// recipe entries: the smallest multiple of 8 MiB at which the benchmark's
// newest → oldest sweeps after the backups stay off storage (DESIGN.md,
// "Store cache", has the counts).
const CacheBudget = 48 << 20

// Cache holds decoded objects — container images and recipes — under
// their blob names for the stores attached to it (ContainerStore.Cached,
// RecipeStore.Cached), least recently used out past its byte budget.
// A blob is only ever written whole or deleted, so the cache stays
// coherent by the stores' rules alone: a Put that returned nil writes
// through; a failed Put, a Delete, a Quarantine and a failed read drop
// the name (Delete and Quarantine before they touch the backend, and
// again after); a read that missed fills only if nothing wrote or
// dropped the name meanwhile. A nil Cache holds nothing.
type Cache struct {
	mu      sync.Mutex
	objects *lru.Cache[string, any]
	// fills holds the generation of each name a missed read is loading,
	// while one is: every write or drop of the name moves it on.
	fills map[string]*fill
}

type fill struct{ loads, gen int }

// NewCache returns an empty cache that holds at most budget bytes; a
// budget below one byte caches nothing.
func NewCache(budget int64) *Cache {
	objects, err := lru.New[string, any](budget)
	if err != nil {
		return nil
	}
	return &Cache{objects: objects, fills: make(map[string]*fill)}
}

// get returns name's object: the cached one, or what load returns, which
// fills the cache at its cost unless name was written or dropped while
// it ran. With bypass set it always loads and never fills. A failed load
// drops name either way.
func (c *Cache) get(name string, bypass bool, load func() (any, int64, error)) (any, error) {
	if c == nil || bypass {
		v, _, err := load()
		if err != nil {
			c.drop(name)
		}
		return v, err
	}
	c.mu.Lock()
	if v, ok := c.objects.Get(name); ok {
		c.mu.Unlock()
		return v, nil
	}
	f := c.fills[name]
	if f == nil {
		f = &fill{}
		c.fills[name] = f
	}
	f.loads++
	gen := f.gen
	c.mu.Unlock()
	v, cost, err := load()
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.invalidate(name)
	} else if f.gen == gen {
		c.objects.Add(name, v, cost)
	}
	if f.loads--; f.loads == 0 {
		delete(c.fills, name)
	}
	return v, err
}

// put writes v, of cost bytes, through as name's object.
func (c *Cache) put(name string, v any, cost int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate(name)
	c.objects.Add(name, v, cost)
}

// drop forgets name's object; no load of it in flight fills.
func (c *Cache) drop(name string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidate(name)
}

// invalidate is drop with c.mu held.
func (c *Cache) invalidate(name string) {
	c.objects.Remove(name)
	if f := c.fills[name]; f != nil {
		f.gen++
	}
}
