package netsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"unsafe"

	"pim/internal/packet"
)

// TestEveryProtoHasASlot: the demux has exactly one slot per packet.Proto*
// constant. The constants are read from packet.go's source, so a protocol
// number added there without a slot here fails the count.
func TestEveryProtoHasASlot(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../packet/packet.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if strings.HasPrefix(name.Name, "Proto") {
						declared++
					}
				}
			}
		}
	}
	all := []byte{packet.ProtoIGMP, packet.ProtoUDP, packet.ProtoPIM, packet.ProtoDVMRP, packet.ProtoCBT,
		packet.ProtoRIPSim, packet.ProtoLSSim, packet.ProtoMOSPF, packet.ProtoPIMData}
	if declared != len(all) || len(protos) != len(all) {
		t.Fatalf("packet.go declares %d Proto* constants, this test lists %d, the demux has %d slots", declared, len(all), len(protos))
	}
	seen := map[uint8]bool{}
	for _, p := range all {
		s := protoSlot[p]
		if int(s) >= len(protos) || protos[s] != p || seen[s] {
			t.Errorf("protocol %d: slot %d", p, s)
		}
		seen[s] = true
	}
	// Every slot is a distinct handler: registering one protocol leaves the
	// other eight empty.
	var nd Node
	for _, p := range all {
		nd.Handle(p, HandlerFunc(func(*Iface, *packet.Packet) {}))
		for _, q := range all {
			if (nd.handler(q) != nil) != (q == p) {
				t.Errorf("after Handle(%d): handler(%d) set = %v", p, q, nd.handler(q) != nil)
			}
		}
		nd.Handle(p, nil)
	}
}

// TestHandleUnlistedProtocolPanics: a stack cannot register a number the
// demux has no slot for, and the panic names the number.
func TestHandleUnlistedProtocolPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "IP protocol 99 ") {
			t.Errorf("Handle(99) recovered %v, want a panic naming protocol 99", r)
		}
	}()
	var nd Node
	nd.Handle(99, HandlerFunc(func(*Iface, *packet.Packet) {}))
}

// TestUnlistedProtocolOnTheWireDrops: a frame carrying a protocol byte no
// stack speaks is dropped as no-handler, on a link and through LocalSend.
func TestUnlistedProtocolOnTheWireDrops(t *testing.T) {
	n, a, b := buildPair(t, 1)
	for _, p := range []byte{0, 99, 255} {
		b.Handle(packet.ProtoUDP, HandlerFunc(func(*Iface, *packet.Packet) { t.Errorf("protocol %d reached the UDP handler", p) }))
		a.Send(a.Ifaces[0], packet.New(1, 2, p, nil), 0)
		b.LocalSend(b.Ifaces[0], packet.New(1, 2, p, nil))
	}
	n.Sched.Run(0)
	if got := n.Stats.Drops[DropNoHandler]; got != 6 {
		t.Errorf("no-handler drops = %d, want 6", got)
	}
}

// TestNodeFootprint pins a node's fixed size: the demux is nine inline
// slots, not one per possible protocol number (a 256-entry table was 4 KB of
// every router, host and LAN anchor).
func TestNodeFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Node{}); size > 256 {
		t.Errorf("sizeof(Node) = %d B, want <= 256", size)
	}
}

// TestFrameFootprint pins an in-flight crossing's size: a frame is its bytes
// and route, not two decoded headers (152 B with them), since a membership
// flood keeps tens of thousands in flight at once.
func TestFrameFootprint(t *testing.T) {
	if size := unsafe.Sizeof(frame{}); size > 64 {
		t.Errorf("sizeof(frame) = %d B, want <= 64", size)
	}
}

// TestEventFootprint pins a queue entry's size: its kind is the localOrd bit,
// so one tagged pointer serves frame deliveries and timers alike (48 B with a
// callback, a *Timer and a *frame side by side), and a Post record rides in
// the padding of a Timer.
func TestEventFootprint(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Errorf("sizeof(event) = %d B, want 32", size)
	}
	if size := unsafe.Sizeof(Timer{}); size > 40 {
		t.Errorf("sizeof(Timer) = %d B, want <= 40", size)
	}
}

// TestNodeIDGuard: a node ID past nodeIDBits would set localOrd in its
// deliveries' order key and make fire read their frames as timers, so
// AddNode refuses it.
func TestNodeIDGuard(t *testing.T) {
	if ord := deliveryOrd(maxNodes-1, ^uint64(0)); ord&localOrd != 0 {
		t.Fatalf("deliveryOrd of the last node sets localOrd: %#x", ord)
	}
	checkNodeID(maxNodes - 1)
	defer func() {
		if recover() == nil {
			t.Error("node ID maxNodes accepted")
		}
	}()
	checkNodeID(maxNodes)
}
