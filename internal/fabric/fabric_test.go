package fabric

import (
	"math"
	"testing"
)

func TestPipeSerializes(t *testing.T) {
	p := NewPipe("test", 0.001, 1e6) // 1 MB/s, 1ms latency
	s1, e1 := p.Transfer(0, 1e6)     // 1 MB -> 1 s
	if s1 != 0.001 || math.Abs(e1-1.001) > 1e-9 {
		t.Fatalf("first transfer [%v,%v], want [0.001,1.001]", s1, e1)
	}
	// Second transfer issued at t=0 must queue behind the first.
	s2, e2 := p.Transfer(0, 1e6)
	if s2 < e1 {
		t.Fatalf("second transfer started at %v before first ended at %v", s2, e1)
	}
	if math.Abs(e2-(e1+1)) > 1e-9 {
		t.Fatalf("second transfer end %v, want %v", e2, e1+1)
	}
}

func TestPipeIdleGapNoQueue(t *testing.T) {
	p := NewPipe("test", 0, 1e6)
	_, e1 := p.Transfer(0, 1e6)
	s2, _ := p.Transfer(e1+5, 1e3) // arrives well after pipe is free
	if s2 != e1+5 {
		t.Fatalf("transfer on idle pipe queued: start %v, want %v", s2, e1+5)
	}
}

func TestPipeAccounting(t *testing.T) {
	p := NewPipe("test", 0, 2e6)
	p.Transfer(0, 1e6)
	p.Transfer(0, 3e6)
	if math.Abs(p.BusyTime()-2.0) > 1e-9 {
		t.Fatalf("busy %v, want 2.0", p.BusyTime())
	}
}

func TestPipeRejectsZeroBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPipe with bw=0 did not panic")
		}
	}()
	NewPipe("bad", 0, 0)
}

func TestTreeFunnelSharedPerPset(t *testing.T) {
	tr := NewTree(2, TreeConfig{BW: 1e6})
	_, e1 := tr.Pset(0).Transfer(0, 1e6)
	s2, _ := tr.Pset(0).Transfer(0, 1e6)
	if s2 < e1 {
		t.Fatalf("same-pset tree transfers overlapped: start %v < end %v", s2, e1)
	}
	// Other pset is independent.
	s3, _ := tr.Pset(1).Transfer(0, 1e6)
	if s3 != treeLatency {
		t.Fatalf("other pset queued: start %v, want %v", s3, treeLatency)
	}
}

func TestEthernetNICBottleneck(t *testing.T) {
	e := NewEthernet(4, EthernetConfig{IONBw: 1e6, CoreBW: 1e9})
	arr := e.Transfer(0, 0, 1e6)
	if arr < 1.0-1e-9 {
		t.Fatalf("transfer faster than NIC allows: %v", arr)
	}
	// Two IONs in parallel both finish ~1s: core is not the bottleneck.
	arr2 := e.Transfer(0, 1, 1e6)
	if arr2 > 1.1 {
		t.Fatalf("parallel ION transfer serialized on core: %v", arr2)
	}
}

func TestEthernetCoreContention(t *testing.T) {
	// Core slower than the sum of NICs: many parallel IONs must queue.
	e := NewEthernet(8, EthernetConfig{IONBw: 1e6, CoreBW: 2e6})
	last := 0.0
	for i := 0; i < 8; i++ {
		if a := e.Transfer(0, i, 1e6); a > last {
			last = a
		}
	}
	// 8 MB through a 2 MB/s core needs ~4s even though each NIC alone is 1s.
	if last < 3.5 {
		t.Fatalf("core contention not modeled: last arrival %v, want ~4", last)
	}
}

func TestTransferExpressDoesNotQueue(t *testing.T) {
	p := NewPipe("x", 0.001, 1e6)
	p.Transfer(0, 5e6) // bulk occupies until t=5.001
	s, e := p.TransferExpress(0, 1e3)
	if s != 0.001 {
		t.Fatalf("express start %v, want 0.001 (no queueing)", s)
	}
	if e-s != 1e-3 {
		t.Fatalf("express duration %v, want serialization only", e-s)
	}
	// Express traffic is accounted but does not block bulk.
	if math.Abs(p.BusyTime()-5.001) > 1e-9 {
		t.Fatalf("busy %v, want 5.001", p.BusyTime())
	}
	s2, _ := p.Transfer(0, 1e6)
	if s2 < 5.0 {
		t.Fatalf("bulk transfer jumped the queue: %v", s2)
	}
}

func TestEthernetAccessors(t *testing.T) {
	e := NewEthernet(2, DefaultEthernetConfig())
	if e.NIC(0) == e.NIC(1) {
		t.Fatal("NICs shared")
	}
	if e.Core() == nil {
		t.Fatal("no core pipe")
	}
	e.Transfer(0, 1, 1<<20)
	if e.NIC(1).BusyTime() == 0 || e.NIC(0).BusyTime() != 0 {
		t.Fatal("transfer charged the wrong NIC")
	}
	if e.Core().BusyTime() == 0 {
		t.Fatal("core not charged")
	}
}

func TestPipeNextFreeAdvances(t *testing.T) {
	p := NewPipe("x", 0, 1e6)
	if p.NextFree() != 0 {
		t.Fatal("fresh pipe busy")
	}
	_, e := p.Transfer(0, 2e6)
	if p.NextFree() != e {
		t.Fatalf("next free %v, want %v", p.NextFree(), e)
	}
}
