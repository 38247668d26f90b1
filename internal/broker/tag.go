package broker

import (
	"fmt"
	"strings"
)

// TagSep separates a rack tag from the request ID proper in a tagged ID.
// Core request IDs are hex strings and tags reject the separator character,
// so the first occurrence unambiguously splits the two.
const TagSep = '@'

// MaxTagLen bounds a rack tag; tags ride on every ID the rack hands out, so
// they are kept short.
const MaxTagLen = 32

// ValidateTag checks a rack tag: 1..MaxTagLen characters drawn from
// [A-Za-z0-9._-]. The empty tag is valid and means "no tagging".
func ValidateTag(tag string) error {
	if tag == "" {
		return nil
	}
	if len(tag) > MaxTagLen {
		return fmt.Errorf("broker: rack tag %q exceeds %d bytes", tag, MaxTagLen)
	}
	for i := 0; i < len(tag); i++ {
		c := tag[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("broker: rack tag %q has invalid character %q (want [A-Za-z0-9._-])", tag, c)
		}
	}
	return nil
}

// TagID prefixes an ID with a rack tag; an empty tag returns the ID
// unchanged.
func TagID(tag, id string) string {
	if tag == "" {
		return id
	}
	return tag + string(TagSep) + id
}

// SplitTaggedID splits a possibly tagged ID into its rack tag and the ID
// proper. IDs without a separator have an empty tag.
func SplitTaggedID(id string) (tag, rest string) {
	if i := strings.IndexByte(id, TagSep); i >= 0 {
		return id[:i], id[i+1:]
	}
	return "", id
}

// UntagID strips the rack-tag prefix, if any, returning the ID proper —
// the request ID carried inside the marshalled package.
func UntagID(id string) string {
	_, rest := SplitTaggedID(id)
	return rest
}

// tagID applies this rack's tag to an outbound ID.
func (r *Rack) tagID(id string) string {
	return TagID(r.cfg.RackTag, id)
}

// untagID strips this rack's own tag from an inbound ID. A foreign or absent
// tag leaves the ID unchanged: a foreign-tagged ID simply misses the index
// (the bottle lives on another rack), and untagged IDs keep working against a
// tagged rack so single-rack clients need not know about tags at all.
func (r *Rack) untagID(id string) string { return untagOwn(r.cfg.RackTag, id) }

// untagOwn strips tag, and only tag, from an inbound ID.
func untagOwn(tag, id string) string {
	if tag != "" && len(id) > len(tag) && id[len(tag)] == TagSep && id[:len(tag)] == tag {
		return id[len(tag)+1:]
	}
	return id
}
