package attr

// Exported for the external tests of this package.
var (
	CheckCanonicalsAgree = checkCanonicalsAgree
	NormalizeOnce        = func(s string) string { return normalize(s, "") }
)
