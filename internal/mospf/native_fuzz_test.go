package mospf

import (
	"bytes"
	"testing"

	"pim/internal/addr"
)

// FuzzMembershipLSAUnmarshal: hostile bytes must decode or error cleanly; the
// group count is a wire field, so the decoder must never hold more entries
// than the input has bytes for, and the reused decode scratch (Router.dec)
// must not leak a previous LSA's groups. Seeds are the LSA shapes a router
// floods; under plain `go test` they run as unit tests.
func FuzzMembershipLSAUnmarshal(f *testing.F) {
	for _, m := range []membershipLSA{
		{Origin: 3, Seq: 1},
		{Origin: 0, Seq: 7, Groups: []addr.IP{0xE1000001}},
		{Origin: 255, Seq: 1 << 31, Groups: []addr.IP{0xE1000001, 0xE1000002, 0xE1000003}},
	} {
		f.Add(m.marshal())
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 2, 0xFF, 0xFF, 225, 0, 0, 1}) // claims 65535 groups, carries one
	f.Fuzz(func(t *testing.T, b []byte) {
		m := membershipLSA{Origin: 9, Seq: 9, Groups: []addr.IP{7, 7, 7}}
		if err := m.unmarshal(b); err != nil {
			return
		}
		if 10+4*len(m.Groups) > len(b) {
			t.Fatalf("decoded %d groups from %d bytes", len(m.Groups), len(b))
		}
		if got, want := m.marshal(), b[:10+4*len(m.Groups)]; !bytes.Equal(got, want) {
			t.Fatalf("re-encode %x, want %x", got, want)
		}
	})
}
