package recipe

// SampleRecipe exposes sampleRecipe to the external store tests.
var SampleRecipe = sampleRecipe
