package core

import (
	"testing"
	"testing/quick"
	"time"
)

func builtPackage(t *testing.T, mode SealMode) *RequestPackage {
	t.Helper()
	spec := RequestSpec{
		Necessary:   tags("male", "columbia"),
		Optional:    tags("basketball", "chess", "golf"),
		MinOptional: 2,
	}
	return mustBuild(t, spec, BuildOptions{Mode: mode, Origin: "alice"}).Package
}

func TestPackageMarshalRoundTrip(t *testing.T) {
	for _, mode := range []SealMode{SealModeVerifiable, SealModeOpaque} {
		pkg := builtPackage(t, mode)
		data, err := pkg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalPackage(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.ID != pkg.ID || back.Origin != pkg.Origin || back.Mode != pkg.Mode || back.Prime != pkg.Prime {
			t.Error("header fields did not round trip")
		}
		if !back.CreatedAt.Equal(pkg.CreatedAt) || !back.ExpiresAt.Equal(pkg.ExpiresAt) {
			t.Error("timestamps did not round trip")
		}
		if len(back.Remainders) != len(pkg.Remainders) {
			t.Fatal("remainder count mismatch")
		}
		for i := range pkg.Remainders {
			if back.Remainders[i] != pkg.Remainders[i] || back.Optional[i] != pkg.Optional[i] {
				t.Error("remainders/mask did not round trip")
			}
		}
		if back.MaxUnknown != pkg.MaxUnknown {
			t.Error("γ did not round trip")
		}
		if (back.Hint == nil) != (pkg.Hint == nil) {
			t.Fatal("hint presence mismatch")
		}
		if pkg.Hint != nil {
			if !back.Hint.C.Equal(pkg.Hint.C) || !back.Hint.B.Equal(pkg.Hint.B) {
				t.Error("hint did not round trip")
			}
		}
		if string(back.Sealed) != string(pkg.Sealed) {
			t.Error("sealed message did not round trip")
		}
	}
}

func TestPackageMarshalRoundTripNoHint(t *testing.T) {
	pkg := mustBuild(t, PerfectMatch(tags("a", "b")...), BuildOptions{}).Package
	data, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPackage(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hint != nil {
		t.Error("no-hint package decoded with a hint")
	}
}

func TestUnmarshalPackageRejectsCorruption(t *testing.T) {
	pkg := builtPackage(t, SealModeVerifiable)
	data, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPackage(data[:len(data)/2]); err == nil {
		t.Error("truncated package should fail")
	}
	if _, err := UnmarshalPackage(append(append([]byte(nil), data...), 0x00)); err == nil {
		t.Error("trailing bytes should fail")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := UnmarshalPackage(bad); err == nil {
		t.Error("bad magic should fail")
	}
	badVersion := append([]byte(nil), data...)
	badVersion[4] = 99
	if _, err := UnmarshalPackage(badVersion); err == nil {
		t.Error("bad version should fail")
	}
	if _, err := UnmarshalPackage(nil); err == nil {
		t.Error("empty input should fail")
	}
}

// Property: truncating the wire form at any offset never panics and never
// yields a valid package.
func TestUnmarshalTruncationProperty(t *testing.T) {
	pkg := builtPackage(t, SealModeVerifiable)
	data, err := pkg.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f := func(cut uint16) bool {
		n := int(cut) % len(data)
		_, err := UnmarshalPackage(data[:n])
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackageDerivedAccessors(t *testing.T) {
	pkg := builtPackage(t, SealModeVerifiable)
	if pkg.AttributeCount() != 5 {
		t.Errorf("m_t = %d", pkg.AttributeCount())
	}
	if pkg.NecessaryCount() != 2 || pkg.OptionalCount() != 3 || pkg.MinOptional() != 2 {
		t.Errorf("α=%d opt=%d β=%d", pkg.NecessaryCount(), pkg.OptionalCount(), pkg.MinOptional())
	}
	if got := pkg.Threshold(); got != 0.8 {
		t.Errorf("θ = %v, want 0.8", got)
	}
	if pkg.Expired(pkg.CreatedAt.Add(time.Second)) {
		t.Error("package should not be expired within the validity window")
	}
	if !pkg.Expired(pkg.ExpiresAt.Add(time.Second)) {
		t.Error("package should be expired after the validity window")
	}
	empty := &RequestPackage{}
	if empty.Threshold() != 0 {
		t.Error("empty package threshold should be 0")
	}
}

func TestPackageCloneIsDeep(t *testing.T) {
	pkg := builtPackage(t, SealModeVerifiable)
	c := pkg.Clone()
	c.Remainders[0] = (c.Remainders[0] + 1) % pkg.Prime
	c.Sealed[0] ^= 0xFF
	c.Optional[0] = !c.Optional[0]
	if pkg.Remainders[0] == c.Remainders[0] || pkg.Sealed[0] == c.Sealed[0] || pkg.Optional[0] == c.Optional[0] {
		t.Error("Clone is not deep")
	}
}

// The clone's hint shares one allocation with the package; its matrix and
// right-hand side must still be copies.
func TestPackageCloneHintIsDeep(t *testing.T) {
	pkg := builtPackage(t, SealModeVerifiable)
	c := pkg.Clone()
	if !c.Hint.C.Equal(pkg.Hint.C) || !c.Hint.B.Equal(pkg.Hint.B) {
		t.Fatal("cloned hint differs from the original")
	}
	c.Hint.C.Set(0, 0, c.Hint.C.At(0, 0).Add(oneElement()))
	c.Hint.B[0] = c.Hint.B[0].Add(oneElement())
	if pkg.Hint.C.Equal(c.Hint.C) || pkg.Hint.B.Equal(c.Hint.B) {
		t.Error("Clone shares the hint with the original")
	}
	if noHint := builtPackageNoHint(t).Clone(); noHint.Hint != nil {
		t.Error("a package without a hint cloned into one with a hint")
	}
}

func builtPackageNoHint(t *testing.T) *RequestPackage {
	t.Helper()
	return mustBuild(t, PerfectMatch(tags("male", "columbia")...), BuildOptions{}).Package
}

// Marshal allocates exactly WireSize bytes, so a WireSize short of the
// encoding would reallocate and one over it would waste: hold them equal on
// the fuzz seed corpus, the allocation-budget request and the decoded form of
// each.
func TestWireSizeEqualsMarshalLength(t *testing.T) {
	built, err := BuildRequest(allocSpec(), BuildOptions{Origin: "alice"})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := []*RequestPackage{built.Package, builtPackageNoHint(t)}
	for _, raw := range fuzzSeedPackages(t) {
		pkg, err := UnmarshalPackage(raw)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	for i, pkg := range pkgs {
		raw, err := pkg.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		size, err := pkg.WireSize()
		if err != nil {
			t.Fatal(err)
		}
		if size != len(raw) || cap(raw) != len(raw) {
			t.Errorf("package %d: WireSize %d, Marshal length %d capacity %d", i, size, len(raw), cap(raw))
		}
	}
	if _, err := (&RequestPackage{}).WireSize(); err == nil {
		t.Error("WireSize of an invalid package should fail as Marshal does")
	}
}

func TestPackageWireSizeMatchesPaperScale(t *testing.T) {
	// The paper reports ~190 B average for a 6-attribute 60%-similarity
	// request and ≤ 1 KB worst case for 20 attributes. Our encoding carries
	// a little framing overhead plus 33-byte field elements, so allow a
	// generous but still same-order bound.
	spec := FuzzyMatch(4, tags("t1", "t2", "t3", "t4", "t5", "t6")...)
	built := mustBuild(t, spec, BuildOptions{Mode: SealModeOpaque})
	size, err := built.Package.WireSize()
	if err != nil {
		t.Fatal(err)
	}
	if size > 1024 {
		t.Errorf("6-attribute request is %d bytes; want well under 1 KiB", size)
	}
	if size < 64 {
		t.Errorf("suspiciously small request: %d bytes", size)
	}
}

func TestSealModeAndProtocolStrings(t *testing.T) {
	if SealModeVerifiable.String() != "verifiable" || SealModeOpaque.String() != "opaque" {
		t.Error("SealMode strings wrong")
	}
	if SealMode(9).String() == "" {
		t.Error("unknown mode should still render")
	}
	if Protocol1.String() != "protocol1" || Protocol2.String() != "protocol2" || Protocol3.String() != "protocol3" {
		t.Error("Protocol strings wrong")
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol should still render")
	}
	if Protocol1.SealMode() != SealModeVerifiable || Protocol2.SealMode() != SealModeOpaque || Protocol3.SealMode() != SealModeOpaque {
		t.Error("protocol seal modes wrong")
	}
}

func TestReplyMarshalRoundTrip(t *testing.T) {
	r := &Reply{
		RequestID: "req-1",
		From:      "bob",
		SentAt:    testEpoch,
		Acks:      [][]byte{{1, 2, 3}, {4, 5}},
	}
	back, err := UnmarshalReply(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if back.RequestID != r.RequestID || back.From != r.From || !back.SentAt.Equal(r.SentAt) {
		t.Error("reply header did not round trip")
	}
	if len(back.Acks) != 2 || string(back.Acks[0]) != string(r.Acks[0]) || string(back.Acks[1]) != string(r.Acks[1]) {
		t.Error("acks did not round trip")
	}
	if r.WireSize() != len(r.Marshal()) {
		t.Error("WireSize mismatch")
	}
	if _, err := UnmarshalReply([]byte("bogus")); err == nil {
		t.Error("bogus reply should fail")
	}
	if _, err := UnmarshalReply(r.Marshal()[:5]); err == nil {
		t.Error("truncated reply should fail")
	}
}
