package addr

import (
	"testing"
	"testing/quick"
)

func TestV4Octets(t *testing.T) {
	ip := V4(192, 168, 1, 20)
	a, b, c, d := ip.Octets()
	if a != 192 || b != 168 || c != 1 || d != 20 {
		t.Fatalf("Octets() = %d.%d.%d.%d, want 192.168.1.20", a, b, c, d)
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		ip := IP(v)
		got, err := ParseIP(ip.String())
		return err == nil && got == ip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseIPErrors(t *testing.T) {
	for _, s := range []string{"", "1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..2.3", "-1.2.3.4"} {
		if _, err := ParseIP(s); err == nil {
			t.Errorf("ParseIP(%q) succeeded, want error", s)
		}
	}
}

func TestParseIPKnown(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want IP
	}{
		{"0.0.0.0", 0},
		{"255.255.255.255", 0xFFFFFFFF},
		{"224.0.0.2", AllRouters},
		{"224.0.0.1", AllSystems},
		{"10.0.0.1", V4(10, 0, 0, 1)},
	} {
		got, err := ParseIP(tc.s)
		if err != nil || got != tc.want {
			t.Errorf("ParseIP(%q) = %v, %v; want %v", tc.s, got, err, tc.want)
		}
	}
}

func TestIsMulticast(t *testing.T) {
	for _, tc := range []struct {
		ip   IP
		want bool
	}{
		{V4(223, 255, 255, 255), false},
		{V4(224, 0, 0, 0), true},
		{V4(239, 255, 255, 255), true},
		{V4(240, 0, 0, 0), false},
		{V4(10, 1, 2, 3), false},
		{GroupForIndex(0), true},
		{GroupForIndex(100000), true},
	} {
		if got := tc.ip.IsMulticast(); got != tc.want {
			t.Errorf("%v.IsMulticast() = %v, want %v", tc.ip, got, tc.want)
		}
	}
}

func TestIsLinkLocalMulticast(t *testing.T) {
	if !AllRouters.IsLinkLocalMulticast() || !AllSystems.IsLinkLocalMulticast() {
		t.Error("224.0.0.x should be link-local multicast")
	}
	if GroupForIndex(3).IsLinkLocalMulticast() {
		t.Error("225.0.0.3 should not be link-local")
	}
	if V4(224, 0, 1, 0).IsLinkLocalMulticast() {
		t.Error("224.0.1.0 is outside 224.0.0.0/24")
	}
}

func TestMask(t *testing.T) {
	for _, tc := range []struct {
		l    int
		want IP
	}{
		{0, 0},
		{8, 0xFF000000},
		{24, 0xFFFFFF00},
		{32, 0xFFFFFFFF},
		{-3, 0},
		{40, 0xFFFFFFFF},
	} {
		if got := Mask(tc.l); got != tc.want {
			t.Errorf("Mask(%d) = %08x, want %08x", tc.l, uint32(got), uint32(tc.want))
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustPrefix(V4(10, 1, 0, 0), 16)
	if !p.Contains(V4(10, 1, 200, 3)) {
		t.Error("10.1.0.0/16 should contain 10.1.200.3")
	}
	if p.Contains(V4(10, 2, 0, 1)) {
		t.Error("10.1.0.0/16 should not contain 10.2.0.1")
	}
	all := MustPrefix(0, 0)
	if !all.Contains(V4(1, 2, 3, 4)) || !all.Contains(0xFFFFFFFF) {
		t.Error("0.0.0.0/0 should contain everything")
	}
}

func TestNewPrefixClearsHostBits(t *testing.T) {
	p := MustPrefix(V4(10, 1, 2, 3), 24)
	if p.Addr != V4(10, 1, 2, 0) {
		t.Errorf("host bits not cleared: %v", p)
	}
}

func TestNewPrefixRejectsBadLength(t *testing.T) {
	if _, err := NewPrefix(0, 33); err == nil {
		t.Error("length 33 accepted")
	}
	if _, err := NewPrefix(0, -1); err == nil {
		t.Error("length -1 accepted")
	}
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("192.168.4.0/22")
	if err != nil {
		t.Fatal(err)
	}
	if p.Len != 22 || p.Addr != V4(192, 168, 4, 0) {
		t.Errorf("got %v", p)
	}
	for _, s := range []string{"1.2.3.4", "1.2.3.4/33", "1.2.3.4/-1", "1.2.3/8", "1.2.3.4/x"} {
		if _, err := ParsePrefix(s); err == nil {
			t.Errorf("ParsePrefix(%q) succeeded, want error", s)
		}
	}
}

func TestPrefixString(t *testing.T) {
	if got := MustPrefix(V4(10, 0, 0, 0), 8).String(); got != "10.0.0.0/8" {
		t.Errorf("got %q", got)
	}
}

func TestPrefixOverlaps(t *testing.T) {
	a := MustPrefix(V4(10, 0, 0, 0), 8)
	b := MustPrefix(V4(10, 20, 0, 0), 16)
	c := MustPrefix(V4(11, 0, 0, 0), 8)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("nested prefixes should overlap")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 11/8 should not overlap")
	}
}

func TestPrefixOverlapsProperty(t *testing.T) {
	// Overlap is symmetric, and a prefix always overlaps itself and 0/0.
	f := func(v1, v2 uint32, l1, l2 uint8) bool {
		p1 := MustPrefix(IP(v1), int(l1%33))
		p2 := MustPrefix(IP(v2), int(l2%33))
		if p1.Overlaps(p2) != p2.Overlaps(p1) {
			return false
		}
		return p1.Overlaps(p1) && p1.Overlaps(Prefix{})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAddressHelpers(t *testing.T) {
	seen := map[IP]bool{}
	for i := 0; i < 64; i++ {
		g := GroupForIndex(i)
		if !g.IsMulticast() || g.IsLinkLocalMulticast() {
			t.Fatalf("GroupForIndex(%d) = %v not a routable group", i, g)
		}
		if seen[g] {
			t.Fatalf("duplicate group %v", g)
		}
		seen[g] = true
	}
}

func TestMustParseIPPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseIP did not panic on bad input")
		}
	}()
	MustParseIP("not-an-ip")
}
