package bbuf

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/registry"
	"repro/internal/sim"
	"repro/internal/xrand"
)

func TestSchedulerRegistry(t *testing.T) {
	for _, name := range []string{"fifo", "deadline", "tenant"} {
		s, err := Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("Lookup(%q) returned %q", name, s.Name())
		}
	}
	if s, err := Lookup(""); err != nil || s.Name() != DefaultScheduler {
		t.Fatalf("Lookup(\"\") = %v, %v; want the %q default", s, err, DefaultScheduler)
	}
	_, err := Lookup("nope")
	var ue *registry.UnknownError
	if !errors.As(err, &ue) || ue.Kind != "bbuf drain scheduler" {
		t.Fatalf("Lookup(nope) error %#v, want a bbuf drain scheduler *registry.UnknownError", err)
	}
	if ue.Name != "nope" || len(ue.Known) != 3 {
		t.Fatalf("error carries %q with known %v, want nope with the three policies", ue.Name, ue.Known)
	}
}

// drainOrder repeatedly applies Pick to a seeded backlog and returns the
// dispatch order by Seq — the scheduler's whole observable behavior.
func drainOrder(s Scheduler, pending []Request) []int64 {
	backlog := append([]Request(nil), pending...)
	var order []int64
	for len(backlog) > 0 {
		i := s.Pick(backlog)
		order = append(order, backlog[i].Seq)
		backlog = append(backlog[:i], backlog[i+1:]...)
	}
	return order
}

func TestSchedulerPickOrdering(t *testing.T) {
	// A seeded backlog where admission order, deadlines, and tenant
	// priorities all disagree.
	backlog := []Request{
		{Seq: 1, Deadline: 9.0, Priority: 0},
		{Seq: 2, Deadline: 3.0, Priority: 2},
		{Seq: 3, Deadline: 3.0, Priority: 0},
		{Seq: 4, Deadline: 5.0, Priority: 1},
	}
	cases := []struct {
		sched Scheduler
		want  []int64
	}{
		// FIFO: admission order, whatever the keys say.
		{FIFO{}, []int64{1, 2, 3, 4}},
		// EDF: deadline ascending, Seq breaking the 3.0 tie.
		{Deadline{}, []int64{2, 3, 4, 1}},
		// Tenant priority descending, Seq within a priority.
		{TenantPriority{}, []int64{2, 4, 1, 3}},
	}
	for _, c := range cases {
		got := drainOrder(c.sched, backlog)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Fatalf("%s dispatch order %v, want %v", c.sched.Name(), got, c.want)
			}
		}
	}
}

func TestParseFleetSpec(t *testing.T) {
	cases := []struct {
		in    string
		nodes int
		gbps  float64
		ok    bool
	}{
		{"", 0, 0, true},
		{"8", 8, 0, true},
		{"8x0.25", 8, 0.25, true},
		{"1x2", 1, 2, true},
		{"0x1", 0, 0, false},
		{"-2x1", 0, 0, false},
		{"8x0", 0, 0, false},
		{"8x-1", 0, 0, false},
		{"x", 0, 0, false},
		{"8xfoo", 0, 0, false},
		{"foo", 0, 0, false},
		{"8xNaN", 0, 0, false},
		{"8xInf", 0, 0, false},
	}
	for _, c := range cases {
		nodes, gbps, err := ParseFleetSpec(c.in)
		if (err == nil) != c.ok {
			t.Fatalf("ParseFleetSpec(%q) err=%v, want ok=%v", c.in, err, c.ok)
		}
		if c.ok && (nodes != c.nodes || gbps != c.gbps) {
			t.Fatalf("ParseFleetSpec(%q) = %d, %v; want %d, %v", c.in, nodes, gbps, c.nodes, c.gbps)
		}
	}
}

func TestFleetPlacement(t *testing.T) {
	// place() is the capacity-aware striping decision; exercise it directly
	// against a built fleet so the assertions don't race background drains.
	const chunk = 8 << 20
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(1024)) // 4 psets
	cfg := DefaultConfig()
	cfg.NoiseProb = 0
	cfg.FleetNodes = 2
	cfg.BufferPerION = chunk
	fs := mustNew(t, m, cfg)
	d := fs.path
	d.init(fs.Core)
	if d.private {
		t.Fatal("2 nodes on 4 psets resolved as the private shape")
	}

	// Round-robin from ION 0's cursor: first chunk node 0, second node 1.
	n1 := d.place(0, chunk)
	d.used[n1] += chunk
	n2 := d.place(0, chunk)
	d.used[n2] += chunk
	if n1 != 0 || n2 != 1 {
		t.Fatalf("placements %d,%d, want striped 0,1", n1, n2)
	}
	// Fleet full: no node can take another chunk — spill.
	if n3 := d.place(0, chunk); n3 != -1 {
		t.Fatalf("placement on a full fleet returned node %d, want -1 (spill)", n3)
	}
	// Capacity-aware skip: freeing node 1 routes the next chunk there.
	d.used[1] = 0
	if n4 := d.place(0, chunk); n4 != 1 {
		t.Fatalf("placement skipped the free node: got %d, want 1", n4)
	}
	// Dead-node skip: with node 1 down too, only spill remains.
	d.used[0], d.used[1] = 0, 0
	d.nodeDead[1] = true
	if n5 := d.place(1, chunk); n5 != 0 { // ION 1's cursor starts at node 1
		t.Fatalf("placement did not skip the dead node: got %d, want 0", n5)
	}

	// The private shape considers only the pset's own node.
	pk := sim.NewKernel()
	pm := machine.MustNew(pk, xrand.New(1), machine.Intrepid(1024))
	pcfg := DefaultConfig()
	pcfg.NoiseProb = 0
	pcfg.BufferPerION = chunk
	pfs := mustNew(t, pm, pcfg)
	pd := pfs.path
	pd.init(pfs.Core)
	if !pd.private || pd.n != pm.NumPsets() {
		t.Fatalf("default shape not private per-ION: n=%d private=%v", pd.n, pd.private)
	}
	if got := pd.place(2, chunk); got != 2 {
		t.Fatalf("private placement for ION 2 returned %d, want 2", got)
	}
	pd.used[2] = chunk
	if got := pd.place(2, chunk); got != -1 {
		t.Fatalf("private placement must spill when its own node is full, got %d", got)
	}
}

func TestSharedFleetStripesAcrossNodes(t *testing.T) {
	// End to end: a 2-node shared fleet on a 4-pset machine must spread one
	// ION's consecutive writes over both nodes' absorb pipes.
	const chunk = 8 << 20
	var st BufferStats
	var fleetN int
	var perNode, want [2]float64
	rig(t, 1024, func(c *Config) { c.FleetNodes = 2 }, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(chunk))
		h.WriteAt(p, 0, chunk, data.Synthetic(chunk))
		st = fs.Buffer()
		fleetN = fs.path.n
		for i := range perNode {
			perNode[i] = fs.path.absorb[i].BusyTime()
			want[i] = chunk / fs.path.absorb[i].BW
		}
	})
	if fleetN != 2 {
		t.Fatalf("fleet resolved to %d nodes, want 2", fleetN)
	}
	if st.AbsorbedBytes != 2*chunk || st.SpilledBytes != 0 {
		t.Fatalf("absorbed %d spilled %d, want %d/0", st.AbsorbedBytes, st.SpilledBytes, int64(2*chunk))
	}
	if perNode != want {
		t.Fatalf("absorb pipes were busy %v s, want one chunk's %v s each (striping)", perNode, want)
	}
}

func TestSharedFleetSpillsWhenNoNodeFits(t *testing.T) {
	// Capacity below a single write: every node is skipped and the write
	// takes the synchronous path, fleet shape or not.
	const chunk = 8 << 20
	var st BufferStats
	rig(t, 1024, func(c *Config) {
		c.FleetNodes = 2
		c.BufferPerION = chunk / 2
	}, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(chunk))
		st = fs.Buffer()
	})
	if st.SpilledBytes != chunk || st.AbsorbedBytes != 0 {
		t.Fatalf("spilled %d absorbed %d, want %d/0", st.SpilledBytes, st.AbsorbedBytes, int64(chunk))
	}
}

func TestDeadlineSchedulerQueuesAndDrainsEverything(t *testing.T) {
	// The reordering path: a queued scheduler must show a real backlog
	// (bytes waiting behind the dispatcher) yet still drain every absorbed
	// byte, leaving the buffers empty.
	const chunk = 8 << 20
	var st BufferStats
	var buffered int64
	rig(t, 256, func(c *Config) { c.DrainPolicy = "deadline" }, func(p *sim.Proc, fs *FileSystem) {
		h, _ := fs.Create(p, 0, "f")
		for i := int64(0); i < 6; i++ {
			h.WriteAt(p, 0, i*chunk, data.Synthetic(chunk))
		}
		h.Close(p, 0)
		p.Sleep(600)
		st = fs.Buffer()
		buffered = fs.BufferedBytes()
	})
	if st.PeakBacklogBytes == 0 {
		t.Fatal("deadline policy never built a backlog — the dispatcher is not queuing")
	}
	if st.AbsorbedBytes != 6*chunk || st.DrainedBytes != 6*chunk || buffered != 0 {
		t.Fatalf("absorbed %d drained %d buffered %d, want %d/%d/0",
			st.AbsorbedBytes, st.DrainedBytes, buffered, int64(6*chunk), int64(6*chunk))
	}
}

func TestIONDownAggregatesLossAcrossHostedNodes(t *testing.T) {
	// An 8-node fleet on 4 psets hosts two nodes per ION. Both of rank 0's
	// writes land on ION 0's pair; killing that ION must surface ONE
	// aggregated loss report covering both nodes' bytes — the per-epoch
	// number ClassifyKills consumes — not one report per fleet node.
	const chunk = 8 << 20
	type loss struct {
		ion   int
		bytes int64
	}
	var calls []loss
	var st BufferStats
	rig(t, 1024, func(c *Config) {
		c.FleetNodes = 8
		c.DrainBW = 1 // keep the bytes buffered when the ION dies
	}, func(p *sim.Proc, fs *FileSystem) {
		fs.OnLost(func(ion int, bytes int64, t float64) {
			calls = append(calls, loss{ion, bytes})
		})
		h, _ := fs.Create(p, 0, "f")
		h.WriteAt(p, 0, 0, data.Synthetic(chunk))
		h.WriteAt(p, 0, chunk, data.Synthetic(chunk))
		fs.path.ionDown(0, p.Now())
		st = fs.Buffer()
	})
	if len(calls) != 1 {
		t.Fatalf("got %d loss reports, want 1 aggregated across the ION's fleet nodes: %+v", len(calls), calls)
	}
	if calls[0].ion != 0 || calls[0].bytes != 2*chunk {
		t.Fatalf("loss report %+v, want ion 0 losing %d", calls[0], int64(2*chunk))
	}
	if st.LostBytes != 2*chunk || st.LossEvents != 1 {
		t.Fatalf("stats report %d lost over %d events, want %d over 1", st.LostBytes, st.LossEvents, int64(2*chunk))
	}
}

// FuzzParseFleetSpec checks that any -bb spec either fails with a
// *SpecError or parses to its documented shape: the empty spec to (0, 0),
// anything else to nodes >= 1 with a finite gbps > 0, or gbps 0 for the
// bare "<nodes>" form.
func FuzzParseFleetSpec(f *testing.F) {
	for _, seed := range []string{"", "8", "8x0.25", "1x2", "0x1", "8x0", "8xNaN", "8xInf", "8x-Inf", "3y", "x"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		nodes, gbps, err := ParseFleetSpec(spec)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseFleetSpec(%q): error %#v is not a *SpecError", spec, err)
			}
			return
		}
		bare := !strings.Contains(spec, "x")
		switch {
		case spec == "":
			if nodes != 0 || gbps != 0 {
				t.Fatalf("empty spec parsed to %d, %v", nodes, gbps)
			}
		case nodes < 1, bare && gbps != 0, !bare && (!(gbps > 0) || math.IsInf(gbps, 1)):
			t.Fatalf("ParseFleetSpec(%q) accepted %d, %v", spec, nodes, gbps)
		}
	})
}
