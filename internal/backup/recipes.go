package backup

import (
	"slices"
	"sync"
	"unsafe"

	"hidestore/internal/recipe"
)

// keptRecipeBytes bounds the decoded entries the driver's kept recipe set
// holds: about 18 recipes of a 32 MB version cut at 4 KB on average. The
// set keeps at least the two most recently used recipes whatever their
// size. Two is what a newest → oldest sweep reads twice — the recipe a
// restore reads and writes back, and the next-newer one its forward
// pointers resolve through — and what a backup writes: the new recipe and
// the departing one it patches. The budget past two lets a sweep after
// the backups find every older version's recipe kept, and a Window of 2
// its departing recipe.
const keptRecipeBytes = 4 << 20

// entrySize is a decoded recipe entry's size in memory.
const entrySize = int(unsafe.Sizeof(recipe.Entry{}))

// keptRecipes holds decoded copies of the recipes the engine last wrote
// and plain restores last read, most recently used first. Each copy is
// the recipe the store holds under its version, byte for byte: the
// driver's PutRecipe and DeleteRecipe update or drop it, and ForgetRecipes
// drops them all. The set hands out and takes in copies, because resolve
// and the departing recipe's patch mutate what they get.
type keptRecipes struct {
	mu   sync.Mutex
	recs []*recipe.Recipe
	// bytes is the decoded entries' size of recs.
	bytes int
}

// get returns a copy of version's kept recipe, or nil, and makes it the
// most recently used.
func (k *keptRecipes) get(version int) *recipe.Recipe {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := slices.IndexFunc(k.recs, func(r *recipe.Recipe) bool { return r.Version == version })
	if i < 0 {
		return nil
	}
	r := k.recs[i]
	copy(k.recs[1:i+1], k.recs[:i])
	k.recs[0] = r
	return r.Clone()
}

// keep makes a copy of r the most recently used recipe, replacing any
// copy of its version, then drops the least recently used while the set
// is over keptRecipeBytes and holds more than two.
func (k *keptRecipes) keep(r *recipe.Recipe) {
	c := r.Clone()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.remove(r.Version)
	k.recs = slices.Insert(k.recs, 0, c)
	k.bytes += recipeBytes(c)
	for len(k.recs) > 2 && k.bytes > keptRecipeBytes {
		last := len(k.recs) - 1
		k.bytes -= recipeBytes(k.recs[last])
		k.recs[last] = nil
		k.recs = k.recs[:last]
	}
}

// recipeBytes is r's decoded entries' size.
func recipeBytes(r *recipe.Recipe) int { return len(r.Entries) * entrySize }

// remove forgets version's copy, if any; k.mu is held.
func (k *keptRecipes) remove(version int) {
	if i := slices.IndexFunc(k.recs, func(r *recipe.Recipe) bool { return r.Version == version }); i >= 0 {
		k.bytes -= recipeBytes(k.recs[i])
		k.recs = slices.Delete(k.recs, i, i+1)
	}
}

// drop forgets version's copy, if any.
func (k *keptRecipes) drop(version int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.remove(version)
}

// forget drops every copy.
func (k *keptRecipes) forget() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.recs, k.bytes = nil, 0
}

// Recipe returns version's recipe for the engine to read or modify: a
// copy of the kept one, else a read of the store, which joins the kept
// set. Integrity readers — fsck, scrub, Repair, a verifying restore — read
// Recipes itself instead, so what they check is the stored bytes.
func (d *RestoreDriver) Recipe(version int) (*recipe.Recipe, error) {
	rec, _, err := d.recipe(version)
	return rec, err
}

// recipe is Recipe, also reporting whether the kept set served it.
func (d *RestoreDriver) recipe(version int) (rec *recipe.Recipe, kept bool, err error) {
	if rec := d.recipes.get(version); rec != nil {
		return rec, true, nil
	}
	rec, err = d.Recipes.Get(version)
	if err != nil {
		return nil, false, err
	}
	d.recipes.keep(rec)
	return rec, false, nil
}

// PutRecipe stores r and keeps a copy of it. Every recipe write of an
// engine goes through here, so no kept copy outlives one. A failed write
// drops the version's copy: the store may now hold either recipe, or none.
func (d *RestoreDriver) PutRecipe(r *recipe.Recipe) error {
	if err := d.Recipes.Put(r); err != nil {
		if r != nil {
			d.recipes.drop(r.Version)
		}
		return err
	}
	d.recipes.keep(r)
	return nil
}

// DeleteRecipe drops version's kept copy and deletes its stored recipe.
func (d *RestoreDriver) DeleteRecipe(version int) error {
	d.recipes.drop(version)
	return d.Recipes.Delete(version)
}

// ForgetRecipes drops every kept recipe. An engine calls it where the
// stored recipes may differ from what it last wrote or read without a
// write of its own: Repair, and a scrub step that found damage.
func (d *RestoreDriver) ForgetRecipes() { d.recipes.forget() }
