package attr

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Normalize applies the paper's profile-normalization pipeline (Section
// III-B) to a raw attribute header or value so that strings which humans
// consider equivalent produce identical canonical text and therefore
// identical SHA-256 hashes:
//
//  1. accent marks and diacritics are stripped,
//  2. all letters are converted to lower case,
//  3. abbreviations are expanded ("cs" -> "computer science"),
//  4. numbers are converted into words ("2" -> "two"),
//  5. plural words are converted to singular form,
//  6. whitespace and punctuation are removed.
//
// Semantic equivalence between different words (synonyms) is explicitly out
// of scope, exactly as in the paper.
//
// Because the words are joined with no separator, one pass can create a word
// the next pass would change ("10 s" -> "tens" -> "ten", "m e" -> "me" ->
// "mechanicalengineering"). Normalize therefore repeats the pipeline until
// its output stops changing, so Normalize(Normalize(s)) == Normalize(s).
func Normalize(s string) string {
	for {
		next := normalize(s, "")
		if next == s {
			return next
		}
		s = next
	}
}

// NormalizeWords is one pass of the Normalize pipeline that keeps single
// spaces between words, which is occasionally useful for presenting
// normalized text to humans.
func NormalizeWords(s string) string { return normalize(s, " ") }

// normalize runs the six steps once and joins the resulting words with sep.
func normalize(s, sep string) string {
	s = stripDiacritics(strings.ToLower(s))
	out := make([]string, 0, 8)
	for _, w := range splitWords(s) {
		// Expansion may introduce several words ("cs" -> "computer science");
		// each expanded word goes through the remaining steps independently.
		for part := range strings.FieldsSeq(expandAbbreviation(w)) {
			from := len(out)
			out = appendNumberWords(out, part)
			for i, np := range out[from:] {
				out[from+i] = singularize(np)
			}
		}
	}
	return strings.Join(out, sep)
}

// splitWords breaks the input at whitespace and punctuation, keeping letter
// and digit runs. Digits and letters are kept in separate words so that
// "windows7" normalizes the same way as "windows 7". The words are substrings
// of s.
func splitWords(s string) []string {
	var words []string
	start, curDigit := -1, false
	for i, r := range s {
		letter, digit := unicode.IsLetter(r), unicode.IsDigit(r)
		if start >= 0 && (!(letter || digit) || digit != curDigit) {
			words = append(words, s[start:i])
			start = -1
		}
		if start < 0 && (letter || digit) {
			start = i
		}
		curDigit = digit
	}
	if start >= 0 {
		words = append(words, s[start:])
	}
	return words
}

// _diacriticFold maps common accented Latin characters to their base letter.
// The stdlib has no transliteration support, so this table covers the Latin-1
// supplement and Latin Extended-A ranges that occur in practice.
var _diacriticFold = map[rune]rune{
	'à': 'a', 'á': 'a', 'â': 'a', 'ã': 'a', 'ä': 'a', 'å': 'a', 'ā': 'a', 'ă': 'a', 'ą': 'a',
	'ç': 'c', 'ć': 'c', 'ĉ': 'c', 'č': 'c',
	'è': 'e', 'é': 'e', 'ê': 'e', 'ë': 'e', 'ē': 'e', 'ĕ': 'e', 'ė': 'e', 'ę': 'e', 'ě': 'e',
	'ì': 'i', 'í': 'i', 'î': 'i', 'ï': 'i', 'ĩ': 'i', 'ī': 'i', 'ĭ': 'i', 'į': 'i', 'ı': 'i',
	'ñ': 'n', 'ń': 'n', 'ņ': 'n', 'ň': 'n',
	'ò': 'o', 'ó': 'o', 'ô': 'o', 'õ': 'o', 'ö': 'o', 'ø': 'o', 'ō': 'o', 'ŏ': 'o', 'ő': 'o',
	'ù': 'u', 'ú': 'u', 'û': 'u', 'ü': 'u', 'ũ': 'u', 'ū': 'u', 'ŭ': 'u', 'ů': 'u', 'ű': 'u', 'ų': 'u',
	'ý': 'y', 'ÿ': 'y', 'ŷ': 'y',
	'ß': 's',
	'ś': 's', 'ŝ': 's', 'ş': 's', 'š': 's',
	'ź': 'z', 'ż': 'z', 'ž': 'z',
	'ğ': 'g', 'ĝ': 'g', 'ġ': 'g', 'ģ': 'g',
	'ł': 'l', 'ĺ': 'l', 'ļ': 'l', 'ľ': 'l',
	'ŕ': 'r', 'ŗ': 'r', 'ř': 'r',
	'ť': 't', 'ţ': 't', 'ț': 't',
	'ď': 'd', 'đ': 'd',
	'À': 'a', 'Á': 'a', 'Â': 'a', 'Ã': 'a', 'Ä': 'a', 'Å': 'a',
	'Ç': 'c',
	'È': 'e', 'É': 'e', 'Ê': 'e', 'Ë': 'e',
	'Ì': 'i', 'Í': 'i', 'Î': 'i', 'Ï': 'i',
	'Ñ': 'n',
	'Ò': 'o', 'Ó': 'o', 'Ô': 'o', 'Õ': 'o', 'Ö': 'o', 'Ø': 'o',
	'Ù': 'u', 'Ú': 'u', 'Û': 'u', 'Ü': 'u',
	'Ý': 'y',
}

func stripDiacritics(s string) string {
	if isASCII(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if folded, ok := _diacriticFold[r]; ok {
			b.WriteRune(folded)
			continue
		}
		// Drop combining marks outright (NFD-decomposed inputs).
		if unicode.Is(unicode.Mn, r) {
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// _abbreviations expands common social-network profile abbreviations. The
// table is intentionally small and public: both the initiator and relays must
// agree on it, just as they must agree on the hash function.
var _abbreviations = map[string]string{
	"cs":      "computer science",
	"comp":    "computer",
	"sci":     "science",
	"eng":     "engineering",
	"engr":    "engineer",
	"univ":    "university",
	"uni":     "university",
	"inst":    "institute",
	"tech":    "technology",
	"mgmt":    "management",
	"dept":    "department",
	"prof":    "professor",
	"dr":      "doctor",
	"mr":      "mister",
	"ms":      "miss",
	"st":      "saint",
	"ave":     "avenue",
	"blvd":    "boulevard",
	"rd":      "road",
	"nyc":     "new york city",
	"ny":      "new york",
	"la":      "los angeles",
	"sf":      "san francisco",
	"uk":      "united kingdom",
	"usa":     "united states",
	"us":      "united states",
	"bball":   "basketball",
	"bsktbll": "basketball",
	"ftbl":    "football",
	"mgr":     "manager",
	"asst":    "assistant",
	"intl":    "international",
	"natl":    "national",
	"assn":    "association",
	"corp":    "corporation",
	"co":      "company",
	"grp":     "group",
	"fav":     "favorite",
	"pic":     "picture",
	"pics":    "pictures",
	"msg":     "message",
	"msgs":    "messages",
	"info":    "information",
	"app":     "application",
	"apps":    "applications",
	"dev":     "developer",
	"devs":    "developers",
	"bio":     "biology",
	"chem":    "chemistry",
	"math":    "mathematics",
	"maths":   "mathematics",
	"phys":    "physics",
	"econ":    "economics",
	"psych":   "psychology",
	"lit":     "literature",
	"phil":    "philosophy",
	"ee":      "electrical engineering",
	"me":      "mechanical engineering",
	"ai":      "artificial intelligence",
	"ml":      "machine learning",
	"db":      "database",
	"os":      "operating system",
	"hr":      "human resources",
	"pr":      "public relations",
	"vp":      "vice president",
	"ceo":     "chief executive officer",
	"cto":     "chief technology officer",
	"cfo":     "chief financial officer",
}

func expandAbbreviation(w string) string {
	if full, ok := _abbreviations[w]; ok {
		return full
	}
	return w
}

var _ones = []string{
	"zero", "one", "two", "three", "four", "five", "six", "seven", "eight", "nine",
	"ten", "eleven", "twelve", "thirteen", "fourteen", "fifteen", "sixteen",
	"seventeen", "eighteen", "nineteen",
}

var _tens = []string{
	"", "", "twenty", "thirty", "forty", "fifty", "sixty", "seventy", "eighty", "ninety",
}

// appendNumberWords appends a decimal digit string of any script to out as
// English words, e.g. "1987" -> one thousand nine hundred eighty seven, and
// any other word as it is. Numbers too large to matter for profile attributes
// (>= 10^15) are spelled digit by digit.
func appendNumberWords(out []string, w string) []string {
	for _, r := range w {
		if !unicode.IsDigit(r) {
			return append(out, w)
		}
	}
	// Strip leading zeros but keep a single zero.
	digits := make([]byte, 0, 16)
	for _, r := range w {
		if d := digitValue(r); d > 0 || len(digits) > 0 {
			digits = append(digits, d)
		}
	}
	if len(digits) == 0 {
		return append(out, _ones[0])
	}
	if len(digits) > 15 {
		for _, d := range digits {
			out = append(out, _ones[d])
		}
		return out
	}
	var n int64
	for _, d := range digits {
		n = n*10 + int64(d)
	}
	return appendInt64Words(out, n)
}

// digitValue returns the value of a decimal digit of any script. Unicode
// encodes each script's digits as one run of code points from zero to nine,
// and some runs abut (the mathematical digits are five runs back to back), so
// the value is the distance from the start of the run modulo ten.
func digitValue(r rune) byte {
	if r >= '0' && r <= '9' {
		return byte(r - '0')
	}
	start := r
	for unicode.IsDigit(start - 1) {
		start--
	}
	return byte((r - start) % 10)
}

// _scales are the number words above a thousand, largest first.
var _scales = []struct {
	value int64
	name  string
}{
	{1_000_000_000_000, "trillion"},
	{1_000_000_000, "billion"},
	{1_000_000, "million"},
	{1_000, "thousand"},
}

// appendInt64Words appends n, 0 <= n < 10^15, to out as English words.
func appendInt64Words(out []string, n int64) []string {
	switch {
	case n < 20:
		return append(out, _ones[n])
	case n < 100:
		if out = append(out, _tens[n/10]); n%10 != 0 {
			out = append(out, _ones[n%10])
		}
		return out
	case n < 1000:
		if out = append(out, _ones[n/100], "hundred"); n%100 != 0 {
			out = appendInt64Words(out, n%100)
		}
		return out
	}
	for _, sc := range _scales {
		if n >= sc.value {
			if out = append(appendInt64Words(out, n/sc.value), sc.name); n%sc.value != 0 {
				out = appendInt64Words(out, n%sc.value)
			}
			return out
		}
	}
	return append(out, _ones[0]) // unreachable for n >= 1000
}

// _irregularPlurals maps irregular English plurals to their singular form.
var _irregularPlurals = map[string]string{
	"children":    "child",
	"men":         "man",
	"women":       "woman",
	"people":      "person",
	"feet":        "foot",
	"teeth":       "tooth",
	"geese":       "goose",
	"mice":        "mouse",
	"lives":       "life",
	"wives":       "wife",
	"knives":      "knife",
	"wolves":      "wolf",
	"leaves":      "leaf",
	"halves":      "half",
	"selves":      "self",
	"shelves":     "shelf",
	"data":        "datum",
	"media":       "medium",
	"criteria":    "criterion",
	"analyses":    "analysis",
	"theses":      "thesis",
	"crises":      "crisis",
	"movies":      "movie",
	"series":      "series",
	"species":     "species",
	"news":        "news",
	"physics":     "physics",
	"politics":    "politics",
	"economics":   "economics",
	"mathematics": "mathematics",
	"athletics":   "athletics",
	"graphics":    "graphics",
	"chess":       "chess",
	"tennis":      "tennis",
	"bus":         "bus",
	"gas":         "gas",
	"lens":        "lens",
	"jeans":       "jeans",
	"glasses":     "glasses",
	"electronics": "electronics",
	"games":       "game",
	"sales":       "sale",
}

// singularize converts a plural English word to singular form using the
// irregular table plus standard suffix rules. Words already singular are
// returned unchanged in the common cases.
func singularize(w string) string {
	if s, ok := _irregularPlurals[w]; ok {
		return s
	}
	n := len(w)
	switch {
	case n > 3 && strings.HasSuffix(w, "ies"):
		return w[:n-3] + "y"
	case n > 4 && strings.HasSuffix(w, "sses"):
		return w[:n-2]
	case n > 4 && (strings.HasSuffix(w, "shes") || strings.HasSuffix(w, "ches") || strings.HasSuffix(w, "xes") || strings.HasSuffix(w, "zes")):
		return w[:n-2]
	case n > 3 && strings.HasSuffix(w, "oes"):
		return w[:n-2]
	case n > 2 && strings.HasSuffix(w, "s") && !strings.HasSuffix(w, "ss") && !strings.HasSuffix(w, "us") && !strings.HasSuffix(w, "is"):
		return w[:n-1]
	default:
		return w
	}
}
