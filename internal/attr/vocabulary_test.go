package attr_test

import (
	"testing"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/dataset"
)

// TestDatasetVocabularyCanonical runs the synthetic corpus vocabulary through
// the canonical-form checks. One pass of the pipeline already reaches the
// fixed point on every word, so normalizing to the fixed point changes no
// attribute the experiments hash.
func TestDatasetVocabularyCanonical(t *testing.T) {
	corpus := dataset.Generate(dataset.Params{Users: 20000, Seed: 1})
	seen := make(map[string]bool)
	check := func(header, word string) {
		if seen[header+attr.Separator+word] {
			return
		}
		seen[header+attr.Separator+word] = true
		if once := attr.NormalizeOnce(word); once != attr.Normalize(word) {
			t.Fatalf("one pass over %q gives %q, the fixed point is %q", word, once, attr.Normalize(word))
		}
		attr.CheckCanonicalsAgree(t, header, word)
	}
	for _, u := range corpus.Users {
		for _, w := range u.Tags {
			check(attr.HeaderTag, w)
		}
		for _, w := range u.Keywords {
			check(attr.HeaderKeyword, w)
		}
	}
	t.Logf("%d distinct vocabulary words", len(seen))
}
