package storage_test

import (
	"encoding/binary"
	"testing"

	"repro/internal/bbuf"
	"repro/internal/data"
	"repro/internal/fsys"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/storage"
)

// tokenWrite is one decoded write of FuzzTokenOrder.
type tokenWrite struct {
	rank   int
	off, n int64
}

// decodeTokenWrites turns fuzz input into a block size and a write
// sequence on a 1024-rank machine (four psets). The first byte picks the
// block size (512 B to 4 KiB); every following 5 bytes are one write: a
// rank anywhere on the machine, an offset inside the first 16 blocks and a
// length of up to 4 blocks, zero included, so writes start and end both on
// and off block boundaries.
func decodeTokenWrites(in []byte) (int64, []tokenWrite) {
	const ranks, maxWrites = 1024, 64
	if len(in) == 0 {
		return 512, nil
	}
	bs := int64(512) << (in[0] % 4)
	in = in[1:]
	var ws []tokenWrite
	for len(in) >= 5 && len(ws) < maxWrites {
		ws = append(ws, tokenWrite{
			rank: int(in[0]) * ranks / 256,
			off:  int64(binary.LittleEndian.Uint16(in[1:])) % (16 * bs),
			n:    int64(binary.LittleEndian.Uint16(in[3:])) % (4*bs + 1),
		})
		in = in[5:]
	}
	return bs, ws
}

// FuzzTokenOrder checks the GPFS block-token manager's accounting against a
// reference recomputed from the input. One process issues the writes to one
// shared file one after another, so the input fixes their order. A block's
// first touch is a grant; a touch while another pset holds the block is a
// revoke; the writer's pset then holds every block it touched. A
// zero-length write touches nothing. On PVFS (lock-free) both counts stay 0.
// The writes must also match the blocking reference chain event for event
// (TestStorageOpMatchesReference) on both file systems.
func FuzzTokenOrder(f *testing.F) {
	f.Add([]byte{})
	// Two psets alternating on one block, then a block-straddling write.
	f.Add([]byte{1, 0, 0, 0, 0, 2, 128, 0, 4, 0, 2, 0, 0, 2, 255, 7})
	// Same-pset writers, a zero-length write, an aligned write.
	f.Add([]byte{0, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 200, 0, 2, 0, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		bs, writes := decodeTokenWrites(in)
		// run issues the writes from one process, then compares the token
		// counters with the reference; lockFree expects none at all.
		run := func(p *sim.Proc, fs *storage.Core, lockFree bool) {
			h, err := fs.Create(p, 0, "shared")
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range writes {
				if err := h.WriteAt(p, w.rank, w.off, data.Synthetic(w.n)); err != nil {
					t.Fatalf("%s: write %+v: %v", fs.Name(), w, err)
				}
			}
			var grants, revokes int
			owner := map[int64]int{}
			for _, w := range writes {
				if lockFree || w.n == 0 {
					continue
				}
				pset := fs.Machine().PsetOfRank(w.rank)
				for b := w.off / bs; b <= (w.off+w.n-1)/bs; b++ {
					if o, held := owner[b]; !held {
						grants++
					} else if o != pset {
						revokes++
					}
					owner[b] = pset
				}
			}
			if fs.Stats.TokenGrants != grants || fs.Stats.TokenRevokes != revokes {
				t.Fatalf("%s, block %d B, writes %+v: %d grants and %d revokes, want %d and %d",
					fs.Name(), bs, writes, fs.Stats.TokenGrants, fs.Stats.TokenRevokes, grants, revokes)
			}
		}
		gpfsRig(t, 1024, func(c *storage.GPFSConfig) { c.BlockSize = bs }, func(p *sim.Proc, fs *storage.Core) { run(p, fs, false) })
		pvfsRig(t, 1024, func(c *storage.Config) { c.BlockSize = bs }, func(p *sim.Proc, fs *storage.Core) { run(p, fs, true) })

		// The same writes through the blocking reference chain must match
		// the core's event for event.
		actors := func() []actor {
			return []actor{{0, func(p *sim.Proc, fs fsys.System, rec func(*sim.Proc, error)) {
				h, err := fs.Create(p, 0, "shared")
				rec(p, err)
				for _, w := range writes {
					rec(p, h.WriteAt(p, w.rank, w.off, data.Synthetic(w.n)))
				}
				syncHandle(p, h, 0)
				rec(p, nil)
				rec(p, h.Close(p, 0))
			}}}
		}
		mounts := map[string]func(*machine.Machine) (refMount, error){
			"gpfs": func(m *machine.Machine) (refMount, error) {
				cfg := storage.DefaultGPFS()
				cfg.BlockSize = bs
				fs, err := storage.NewGPFS(m, cfg)
				return refMount{core: fs, sys: fs, buffer: func() bbuf.BufferStats { return bbuf.BufferStats{} }}, err
			},
			"pvfs": func(m *machine.Machine) (refMount, error) {
				cfg := storage.DefaultPVFS()
				cfg.BlockSize = bs
				fs, err := storage.NewPVFS(m, cfg)
				return refMount{core: fs, sys: fs, buffer: func() bbuf.BufferStats { return bbuf.BufferStats{} }}, err
			},
		}
		for name, mount := range mounts {
			got := runScenario(t, mount, nil, false, false, actors())
			want := runScenario(t, mount, nil, false, true, actors())
			compareOutcome(t, name, got, want)
		}
	})
}
