package backup

import (
	"slices"
	"sync"

	"hidestore/internal/recipe"
)

// keptRecipeCap bounds the driver's kept recipe set. Two is what a newest
// → oldest sweep reads twice: the recipe a restore reads and writes back,
// and the next-newer one its forward pointers resolve through. It is also
// what a backup writes: the new recipe and the departing one it patches,
// which the previous backup wrote.
const keptRecipeCap = 2

// keptRecipes holds decoded copies of the recipes the engine last wrote
// and plain restores last read, most recently used first. Each copy is
// the recipe the store holds under its version, byte for byte: the
// driver's PutRecipe and DeleteRecipe update or drop it, and ForgetRecipes
// drops them all. The set hands out and takes in copies, because resolve
// and the departing recipe's patch mutate what they get.
type keptRecipes struct {
	mu   sync.Mutex
	recs []*recipe.Recipe
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
// copy of its version and dropping the least recently used past the cap.
func (k *keptRecipes) keep(r *recipe.Recipe) {
	c := r.Clone()
	k.mu.Lock()
	defer k.mu.Unlock()
	k.recs = slices.DeleteFunc(k.recs, func(old *recipe.Recipe) bool { return old.Version == r.Version })
	k.recs = slices.Insert(k.recs, 0, c)
	if len(k.recs) > keptRecipeCap {
		k.recs[keptRecipeCap] = nil
		k.recs = k.recs[:keptRecipeCap]
	}
}

// drop forgets version's copy, if any.
func (k *keptRecipes) drop(version int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.recs = slices.DeleteFunc(k.recs, func(r *recipe.Recipe) bool { return r.Version == version })
}

// forget drops every copy.
func (k *keptRecipes) forget() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.recs = nil
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
