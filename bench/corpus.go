package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"sealedbottle/internal/attr"
	"sealedbottle/internal/core"
)

// numClients is the closed-loop client count of every workload: the sandbox
// has two cores, and the racks serve from the same process.
const numClients = 2

// profileSize is the attribute count of each candidate profile.
const profileSize = 7

// corpusEpoch stamps every generated package, so that equal seeds give equal
// bytes; the validity window keeps the packages live on a rack that runs on
// the wall clock.
var corpusEpoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

const corpusValidity = 50 * 365 * 24 * time.Hour

// idLen is the length of a request ID: 16 bytes in hex, as core draws them.
const idLen = 32

// template is one real marshalled request package and the offset of its
// request ID, so that clones differ from it in the ID alone.
type template struct {
	raw   []byte
	idOff int
}

// stamp returns a copy of the template's bytes under a new request ID.
func (t template) stamp(id string) []byte {
	out := append([]byte(nil), t.raw...)
	copy(out[t.idOff:t.idOff+idLen], id)
	return out
}

// Streams of request IDs; an ID is the stream, the seed and a counter.
const (
	streamStanding = 1
	streamHistory  = 2
	streamClient   = 8 // plus the client's index
)

func requestID(seed int64, stream, n int) string {
	var b [16]byte
	binary.BigEndian.PutUint32(b[0:], uint32(stream))
	binary.BigEndian.PutUint32(b[4:], uint32(seed))
	binary.BigEndian.PutUint64(b[8:], uint64(n))
	return hex.EncodeToString(b[:])
}

// corpus is everything a run feeds the system, made from the seed alone.
type corpus struct {
	seed      int64
	templates []template
	// standing holds the standing population: templates cloned round-robin
	// under IDs of streamStanding. standingIDs[i] names standing[i].
	standing    [][]byte
	standingIDs []string
	// profiles are the candidates' profiles, one per client. Their
	// attributes never occur in a template, so a standing bottle passes a
	// candidate's prefilter by residue coincidence only and never matches.
	profiles [numClients]*attr.Profile
	// history[c] lists the templates that pass candidate c's prefilter; clones
	// of them age a sweeper's seen window before measurement.
	history [numClients][]template
	sha     string
}

// seededReader adapts math/rand to the io.Reader that core draws keys, nonces
// and request IDs from.
type seededReader struct{ r *rand.Rand }

func (s seededReader) Read(p []byte) (int, error) { return s.r.Read(p) }

// newCorpus builds distinct real request packages and clones them up to the
// standing size.
func newCorpus(seed int64, distinct, standing int) (*corpus, error) {
	rng := rand.New(rand.NewSource(seed))
	c := &corpus{seed: seed}
	for i := range c.profiles {
		p, err := candidateProfile(rng, i)
		if err != nil {
			return nil, err
		}
		c.profiles[i] = p
	}
	var residues [numClients]core.ResidueSet
	for k, prof := range c.profiles {
		m, err := core.NewMatcher(prof, core.MatcherConfig{})
		if err != nil {
			return nil, err
		}
		residues[k] = m.ResidueSet(core.DefaultPrime)
	}
	// build makes the i-th real package and files it under the candidates
	// whose prefilter it passes.
	build := func(i int) (template, error) {
		built, err := core.BuildRequest(standingSpec(rng, i), core.BuildOptions{
			Origin:   "standing",
			Validity: corpusValidity,
			Rand:     seededReader{rng},
			Now:      func() time.Time { return corpusEpoch },
		})
		if err != nil {
			return template{}, fmt.Errorf("corpus: build request %d: %w", i, err)
		}
		raw, err := built.Package.Marshal()
		if err != nil {
			return template{}, fmt.Errorf("corpus: marshal request %d: %w", i, err)
		}
		off := bytes.Index(raw, []byte(built.Package.ID))
		if off < 0 || len(built.Package.ID) != idLen {
			return template{}, fmt.Errorf("corpus: request %d: ID %q not found in its encoding", i, built.Package.ID)
		}
		t := template{raw: raw, idOff: off}
		for k := range residues {
			if built.Package.PrefilterMatch(residues[k]) {
				c.history[k] = append(c.history[k], t)
			}
		}
		return t, nil
	}
	sum := sha256.New()
	for i := 0; i < distinct; i++ {
		t, err := build(i)
		if err != nil {
			return nil, err
		}
		c.templates = append(c.templates, t)
		sum.Write(t.raw)
	}
	// A small corpus may hold nothing a candidate's prefilter passes; its
	// history then comes from further packages that no bottle is cloned from.
	lacking := func() bool {
		for _, h := range c.history {
			if len(h) == 0 {
				return true
			}
		}
		return false
	}
	for i := distinct; lacking(); i++ {
		if i > distinct+20000 {
			return nil, errors.New("corpus: no package passes a candidate's prefilter")
		}
		if _, err := build(i); err != nil {
			return nil, err
		}
	}
	c.standing = make([][]byte, standing)
	c.standingIDs = make([]string, standing)
	for i := range c.standing {
		c.standingIDs[i] = requestID(seed, streamStanding, i)
		c.standing[i] = c.templates[i%distinct].stamp(c.standingIDs[i])
		sum.Write(c.standing[i])
	}
	for _, p := range c.profiles {
		sum.Write([]byte(p.Fingerprint()))
	}
	c.sha = hex.EncodeToString(sum.Sum(nil))
	return c, nil
}

// candidateProfile draws a profile whose attributes have pairwise distinct
// residues. With a fixed number of residues the share of the rack that passes
// the candidate's prefilter is the same under every seed; only which bottles
// pass changes.
func candidateProfile(rng *rand.Rand, client int) (*attr.Profile, error) {
	for try := 0; try < 10000; try++ {
		p := attr.NewProfile()
		for p.Len() < profileSize {
			p.Add(attr.MustNew(fmt.Sprintf("cand%d", client), fmt.Sprintf("a%d", rng.Intn(1<<20))))
		}
		m, err := core.NewMatcher(p, core.MatcherConfig{})
		if err != nil {
			return nil, err
		}
		if m.ResidueSet(core.DefaultPrime).Count() == profileSize {
			return p, nil
		}
	}
	return nil, fmt.Errorf("corpus: no profile with %d distinct residues found", profileSize)
}

// standingSpec draws the search of the i-th standing template: eight to ten
// necessary and three optional tags out of a vocabulary of 5000, of which a
// matching user may lack one or none. The shapes go round-robin, so every
// seed gives the same mix of package sizes and only the tags differ. About one
// in a hundred such searches passes the prefilter of a candidate with seven
// residues. The share is kept that low because a sweeper's seen window evicts
// oldest first: standing bottles that fall out of it come back with the next
// sweep, in bursts as long as the block of them in the window, and with few
// of them the bursts are over before warm-up is.
func standingSpec(rng *rand.Rand, i int) core.RequestSpec {
	tags := rng.Perm(5000)
	necessary := 8 + i%3
	const optional = 3
	spec := core.RequestSpec{MinOptional: optional - (i/3)%2}
	for k := 0; k < necessary+optional; k++ {
		a := attr.MustNew(attr.HeaderTag, fmt.Sprintf("t%d", tags[k]))
		if k < necessary {
			spec.Necessary = append(spec.Necessary, a)
		} else {
			spec.Optional = append(spec.Optional, a)
		}
	}
	return spec
}

// friendSpec draws a search that the owner of profile matches: two necessary
// and three optional attributes of the profile plus one optional attribute
// nobody owns, of which a match may lack one (γ=1, so the hint matrix is on
// the path).
func friendSpec(rng *rand.Rand, profile []attr.Attribute) core.RequestSpec {
	order := rng.Perm(len(profile))
	spec := core.RequestSpec{MinOptional: 3}
	for i, k := range order[:5] {
		if i < 2 {
			spec.Necessary = append(spec.Necessary, profile[k])
		} else {
			spec.Optional = append(spec.Optional, profile[k])
		}
	}
	spec.Optional = append(spec.Optional, attr.MustNew("nobody", fmt.Sprintf("x%d", rng.Intn(1<<30))))
	return spec
}
