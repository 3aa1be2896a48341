package storage_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/data"
	"repro/internal/fault"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/xrand"
)

// refFS runs the blocking reference chain (reference_test.go) in place of
// the core's file operations, each in a shared section, as fsys.Guard
// brackets the core's.
type refFS struct {
	fsys.System
	c *storage.Core
}

func (r refFS) Create(p *sim.Proc, rank int, path string) (fsys.Handle, error) {
	p.EnterShared()
	h, err := storage.RefCreate(r.c, p, rank, path)
	p.ExitShared()
	if h == nil {
		return nil, err
	}
	return refHandle{h}, err
}

func (r refFS) Open(p *sim.Proc, rank int, path string) (fsys.Handle, error) {
	p.EnterShared()
	h, err := storage.RefOpen(r.c, p, rank, path)
	p.ExitShared()
	if h == nil {
		return nil, err
	}
	return refHandle{h}, err
}

type refHandle struct{ *storage.Handle }

func (h refHandle) WriteAt(p *sim.Proc, rank int, off int64, buf data.Buf) error {
	p.EnterShared()
	err := storage.RefWriteAt(h.Handle, p, rank, off, buf)
	p.ExitShared()
	return err
}

func (h refHandle) sync(p *sim.Proc, rank int) {
	p.EnterShared()
	storage.RefSync(h.Handle, p, rank)
	p.ExitShared()
}

// syncHandle waits out rank's commits on h: through the reference chain
// for a reference handle, through the handle's own sync otherwise.
func syncHandle(p *sim.Proc, h fsys.Handle, rank int) {
	if rh, ok := h.(refHandle); ok {
		rh.sync(p, rank)
		return
	}
	p.AwaitNow(h.StartSync(p, rank))
}

func (h refHandle) Close(p *sim.Proc, rank int) error {
	p.EnterShared()
	err := storage.RefClose(h.Handle, p, rank)
	p.ExitShared()
	return err
}

// refMount is a mounted backend: its core, what ranks call, how faults
// attach, and its buffer counters (zero without a buffer tier).
type refMount struct {
	core   *storage.Core
	sys    fsys.System
	faults func(in *fault.Injector, rng *xrand.RNG)
	buffer func() bbuf.BufferStats
}

// refBackends are the data paths the reference check covers, each with a
// 64 KiB block so small writes straddle blocks and reach many servers.
var refBackends = []struct {
	name  string
	mount func(m *machine.Machine) (refMount, error)
}{
	{"gpfs", func(m *machine.Machine) (refMount, error) { return mountGPFS(m, true) }},
	{"gpfs cache off", func(m *machine.Machine) (refMount, error) { return mountGPFS(m, false) }},
	{"pvfs", func(m *machine.Machine) (refMount, error) {
		cfg := storage.DefaultPVFS()
		fs, err := storage.NewPVFS(m, cfg)
		if err != nil {
			return refMount{}, err
		}
		return refMount{core: fs, sys: fs, faults: fs.EnableFaults, buffer: func() bbuf.BufferStats { return bbuf.BufferStats{} }}, nil
	}},
	{"bbuf absorb", func(m *machine.Machine) (refMount, error) { return mountBB(m, 2<<30) }},
	{"bbuf spill", func(m *machine.Machine) (refMount, error) { return mountBB(m, 100<<10) }},
}

func mountGPFS(m *machine.Machine, writeBehind bool) (refMount, error) {
	cfg := storage.DefaultGPFS()
	cfg.BlockSize, cfg.WriteBehind = 64<<10, writeBehind
	fs, err := storage.NewGPFS(m, cfg)
	if err != nil {
		return refMount{}, err
	}
	return refMount{core: fs, sys: fs, faults: fs.EnableFaults, buffer: func() bbuf.BufferStats { return bbuf.BufferStats{} }}, nil
}

func mountBB(m *machine.Machine, perION int64) (refMount, error) {
	cfg := bbuf.DefaultConfig()
	cfg.BlockSize, cfg.BufferPerION = 64<<10, perION
	fs, err := bbuf.New(m, cfg)
	if err != nil {
		return refMount{}, err
	}
	return refMount{core: fs.Core, sys: fs, faults: fs.EnableFaults, buffer: fs.Buffer}, nil
}

// refFaults are the fault schedules of the check: none, four servers down
// from the start (their blocks fail over), and every server down (every
// commit exhausts its retry budget).
var refFaults = []struct {
	name  string
	sched func(servers int) fault.Schedule
}{
	{"no faults", nil},
	{"failover", func(int) fault.Schedule { return downFrom(0, 4) }},
	{"retries exhausted", func(n int) fault.Schedule { return downFrom(0, n) }},
}

// downFrom fails servers [lo, hi) just after time 0.
func downFrom(lo, hi int) fault.Schedule {
	var s fault.Schedule
	for i := lo; i < hi; i++ {
		s = append(s, fault.Event{Time: 1e-9, Class: fault.Server, Index: i, Kind: fault.Fail})
	}
	return s
}

// actor is one rank's process in a scenario: it calls fs and records each
// call's outcome with rec.
type actor struct {
	rank int
	body func(p *sim.Proc, fs fsys.System, rec func(p *sim.Proc, err error))
}

// refOutcome is what a scenario left behind on one path: each actor's
// return times and errors, the events scheduled, every file's bytes and
// the counters.
type refOutcome struct {
	log    [][]string
	events uint64
	files  map[string]string
	stats  storage.Stats
	buffer bbuf.BufferStats
}

// runScenario runs actors on a fresh 1024-rank machine (four psets)
// against the core (ref false) or the blocking reference, on the serial
// kernel or, sharded, on the partitioned one with two lane workers, each
// actor on its pset's lane and every call guarded.
func runScenario(t *testing.T, mount func(*machine.Machine) (refMount, error), sched fault.Schedule, sharded, ref bool, actors []actor) refOutcome {
	t.Helper()
	k := sim.NewKernel()
	m := machine.MustNew(k, xrand.New(1), machine.Intrepid(1024))
	if sharded {
		k.EnableSharding(m.NumPsets(), 2, mpi.Lookahead(m), 1)
	}
	mt, err := mount(m)
	if err != nil {
		t.Fatal(err)
	}
	if sched != nil {
		mt.faults(fault.NewInjector(k, sched), xrand.New(5))
	}
	fs := mt.sys
	switch {
	case ref:
		fs = refFS{System: fs, c: mt.core}
	case sharded:
		fs = fsys.Guard(fs)
	}
	out := refOutcome{log: make([][]string, len(actors)), files: map[string]string{}}
	for i, a := range actors {
		i, a := i, a
		rec := func(p *sim.Proc, err error) {
			out.log[i] = append(out.log[i], fmt.Sprintf("%v %v", p.Now(), err))
		}
		part := -1
		if sharded {
			part = m.PsetOfRank(a.rank)
		}
		k.GoPart(part, fmt.Sprintf("r%d", a.rank), func(p *sim.Proc) { a.body(p, fs, rec) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out.events = k.Events()
	for _, path := range []string{"shared", "storm/f00", "storm/f07", "storm/f31"} {
		if mt.core.Exists(path) {
			b := mt.core.Contents(path)
			if b.Real() {
				out.files[path] = string(b.Bytes())
			} else {
				out.files[path] = fmt.Sprintf("synthetic %d", b.Len())
			}
		}
	}
	out.stats, out.buffer = mt.core.Stats, mt.buffer()
	return out
}

// payload is n real bytes that differ by seed.
func payload(seed int, n int64) data.Buf {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(1 + (seed*131+j*7)%251)
	}
	return data.FromBytes(b)
}

// stormActors create, write and close one file each in one directory,
// from 32 ranks on four psets. Rank 0 then creates its file again and
// rank 32 opens one that does not exist.
func stormActors() []actor {
	var as []actor
	for i := 0; i < 32; i++ {
		i, rank := i, i*32
		as = append(as, actor{rank, func(p *sim.Proc, fs fsys.System, rec func(*sim.Proc, error)) {
			path := fmt.Sprintf("storm/f%02d", i)
			h, err := fs.Create(p, rank, path)
			rec(p, err)
			if err != nil {
				return
			}
			rec(p, h.WriteAt(p, rank, 0, payload(i, 3000+int64(i)*4517)))
			rec(p, h.Close(p, rank))
			switch i {
			case 0:
				_, err = fs.Create(p, rank, path)
				rec(p, err)
			case 1:
				_, err = fs.Open(p, rank, "storm/missing")
				rec(p, err)
			}
		}})
	}
	return as
}

// sharedActors write one shared file from twelve ranks on four psets:
// rank 0 creates it, the others open it once it exists and each write
// three unaligned, block-straddling extents that overlap their
// neighbours', so tokens move between psets. Each syncs and closes, then
// writes to and closes the closed handle.
func sharedActors() []actor {
	const bs = 64 << 10
	as := []actor{{0, func(p *sim.Proc, fs fsys.System, rec func(*sim.Proc, error)) {
		h, err := fs.Create(p, 0, "shared")
		rec(p, err)
		if err != nil {
			return
		}
		rec(p, h.WriteAt(p, 0, 0, payload(0, 100)))
		rec(p, h.WriteAt(p, 0, 50, data.Buf{}))
		rec(p, h.Close(p, 0))
	}}}
	for j := 1; j <= 12; j++ {
		j, rank := j, j*80
		as = append(as, actor{rank, func(p *sim.Proc, fs fsys.System, rec func(*sim.Proc, error)) {
			p.Sleep(0.01)
			h, err := fs.Open(p, rank, "shared")
			rec(p, err)
			if err != nil {
				return
			}
			for w := 0; w < 3; w++ {
				off := int64(j*3+w) * bs * 7 / 10
				rec(p, h.WriteAt(p, rank, off, payload(j*3+w, bs*13/10)))
			}
			syncHandle(p, h, rank)
			rec(p, nil)
			rec(p, h.Close(p, rank))
			rec(p, h.WriteAt(p, rank, 0, payload(j, 10)))
			rec(p, h.Close(p, rank))
		}})
	}
	return as
}

// checkOps runs actors on every backend and fault schedule, serial and
// sharded, through the core and through the blocking reference, and
// requires the same outcome from both. It returns the counters summed over
// the runs, so a caller can check what the runs reached.
func checkOps(t *testing.T, actors func() []actor) (sum storage.Stats, buf bbuf.BufferStats) {
	t.Helper()
	for _, b := range refBackends {
		for _, f := range refFaults {
			var sched fault.Schedule
			if f.sched != nil {
				sched = f.sched(storage.DefaultConfig().NumServers)
			}
			for _, sharded := range []bool{false, true} {
				got := runScenario(t, b.mount, sched, sharded, false, actors())
				want := runScenario(t, b.mount, sched, sharded, true, actors())
				where := fmt.Sprintf("%s, %s, sharded %v", b.name, f.name, sharded)
				compareOutcome(t, where, got, want)
				sum.TokenRevokes += got.stats.TokenRevokes
				sum.Failovers += got.stats.Failovers
				sum.CommitErrors += got.stats.CommitErrors
				buf.AbsorbedBytes += got.buffer.AbsorbedBytes
				buf.SpilledBytes += got.buffer.SpilledBytes
			}
		}
	}
	return sum, buf
}

// compareOutcome fails t where got and want differ.
func compareOutcome(t *testing.T, where string, got, want refOutcome) {
	t.Helper()
	for i := range want.log {
		if !reflect.DeepEqual(got.log[i], want.log[i]) {
			t.Fatalf("%s: actor %d returned %q, reference %q", where, i, got.log[i], want.log[i])
		}
	}
	if got.events != want.events {
		t.Fatalf("%s: %d events, reference %d", where, got.events, want.events)
	}
	if !reflect.DeepEqual(got.files, want.files) {
		t.Fatalf("%s: file contents differ from the reference's", where)
	}
	if got.stats != want.stats {
		t.Fatalf("%s: stats %+v, reference %+v", where, got.stats, want.stats)
	}
	if got.buffer != want.buffer {
		t.Fatalf("%s: buffer stats %+v, reference %+v", where, got.buffer, want.buffer)
	}
}

// TestStorageOpMatchesReference holds the core's Create, Open, WriteAt,
// Sync and Close to the blocking reference chain on every data path —
// GPFS write-behind and cache-off, PVFS, the burst buffer absorbing and
// spilling — with and without faulted servers, serial and on the
// partitioned kernel: a create storm in one directory and shared-file
// writes that revoke tokens.
func TestStorageOpMatchesReference(t *testing.T) {
	for name, actors := range map[string]func() []actor{"create storm": stormActors, "shared file": sharedActors} {
		t.Run(name, func(t *testing.T) {
			sum, buf := checkOps(t, actors)
			reached := sum.Failovers > 0 && sum.CommitErrors > 0 && buf.AbsorbedBytes > 0 && buf.SpilledBytes > 0
			if !reached || name == "shared file" && sum.TokenRevokes == 0 {
				t.Errorf("the runs reached too little: %+v, %+v", sum, buf)
			}
		})
	}
}
