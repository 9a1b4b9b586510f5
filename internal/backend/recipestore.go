package backend

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"hidestore/internal/recipe"
)

const (
	recipePrefix = "r_"
	recipeExt    = ".rcp"
)

// RecipeName returns the blob name of a version's recipe.
func RecipeName(version int) string {
	return recipePrefix + strconv.Itoa(version) + recipeExt
}

// RecipeStore adapts a Backend to recipe.Store; a version's recipe is
// the blob r_<version>.rcp. Like ContainerStore, the Store interface is
// context-free by design, so ops run under context.Background.
// ErrNotFound maps to recipe.ErrNotFound with the chain preserved.
type RecipeStore struct {
	b Backend
	// cache and uncached are ContainerStore's. Put takes ownership of its
	// recipe, as recipe.Store states, so that recipe is what the cache
	// holds.
	cache    *Cache
	uncached bool
}

var _ recipe.Store = (*RecipeStore)(nil)

// entrySize is a decoded recipe entry's size in memory.
const entrySize = int64(unsafe.Sizeof(recipe.Entry{}))

// NewRecipeStore adapts b to a recipe store.
func NewRecipeStore(b Backend) *RecipeStore {
	return &RecipeStore{b: b}
}

// Cached returns s attached to cache, which a system's ContainerStore
// shares.
func (s *RecipeStore) Cached(cache *Cache) *RecipeStore {
	c := *s
	c.cache = cache
	return &c
}

// UncachedRecipes is UncachedContainers for recipes.
func UncachedRecipes(s recipe.Store) recipe.Store {
	if a, ok := s.(*RecipeStore); ok {
		v := *a
		v.uncached = true
		return &v
	}
	return s
}

// Put implements recipe.Store.
func (s *RecipeStore) Put(r *recipe.Recipe) error {
	if r == nil {
		return fmt.Errorf("backend: Put nil recipe")
	}
	if r.Version <= 0 {
		return fmt.Errorf("backend: Put version %d (must be positive)", r.Version)
	}
	name := RecipeName(r.Version)
	buf, err := r.MarshalBinary()
	if err != nil {
		s.cache.drop(name)
		return fmt.Errorf("backend: marshal recipe v%d: %w", r.Version, err)
	}
	if err := s.b.Put(context.Background(), name, buf); err != nil {
		s.cache.drop(name)
		return fmt.Errorf("backend: put recipe v%d: %w", r.Version, err)
	}
	s.cache.put(name, r, recipeCost(r))
	return nil
}

// recipeCost is r's decoded entries' size in memory.
func recipeCost(r *recipe.Recipe) int64 { return int64(len(r.Entries)) * entrySize }

// Get implements recipe.Store. A recipe that is, or may now be, in the
// cache is handed out as a clone.
func (s *RecipeStore) Get(version int) (*recipe.Recipe, error) {
	v, err := s.cache.get(RecipeName(version), s.uncached, func() (any, int64, error) {
		buf, err := s.b.Get(context.Background(), RecipeName(version))
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				return nil, 0, fmt.Errorf("%w: version %d: %w", recipe.ErrNotFound, version, err)
			}
			return nil, 0, fmt.Errorf("backend: read recipe v%d: %w", version, err)
		}
		r, err := recipe.UnmarshalBinary(buf)
		if err != nil {
			return nil, 0, fmt.Errorf("recipe v%d: %w", version, err)
		}
		return r, recipeCost(r), nil
	})
	if err != nil {
		return nil, err
	}
	r := v.(*recipe.Recipe)
	if s.cache != nil && !s.uncached {
		return r.Clone(), nil
	}
	return r, nil
}

// Delete implements recipe.Store.
func (s *RecipeStore) Delete(version int) error {
	name := RecipeName(version)
	s.cache.drop(name)
	defer s.cache.drop(name) // a fill that read the blob before it went
	if err := s.b.Delete(context.Background(), name); err != nil {
		if errors.Is(err, ErrNotFound) {
			return fmt.Errorf("%w: version %d: %w", recipe.ErrNotFound, version, err)
		}
		return fmt.Errorf("backend: delete recipe v%d: %w", version, err)
	}
	return nil
}

// Has implements recipe.Store.
func (s *RecipeStore) Has(version int) (bool, error) {
	ok, err := s.b.Has(context.Background(), RecipeName(version))
	if err != nil {
		return false, fmt.Errorf("backend: stat recipe v%d: %w", version, err)
	}
	return ok, nil
}

// Versions implements recipe.Store.
func (s *RecipeStore) Versions() ([]int, error) {
	names, err := s.b.List(context.Background(), recipePrefix)
	if err != nil {
		return nil, fmt.Errorf("backend: list recipes: %w", err)
	}
	out := make([]int, 0, len(names))
	for _, name := range names {
		if !strings.HasSuffix(name, recipeExt) {
			continue
		}
		n, err := strconv.Atoi(name[len(recipePrefix) : len(name)-len(recipeExt)])
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

// Len implements recipe.Store.
func (s *RecipeStore) Len() (int, error) {
	versions, err := s.Versions()
	if err != nil {
		return 0, err
	}
	return len(versions), nil
}
