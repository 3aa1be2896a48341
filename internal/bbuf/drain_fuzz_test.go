package bbuf

import (
	"fmt"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// FuzzFleetDrain holds the burst-buffer fleet to its byte accounting
// under fuzzed shapes and bursts (after Wang et al., arXiv 1505.01765):
// the fleet is private or 1 to 8 shared nodes, the drain policy fifo,
// deadline or tenant, each node holds 0 to 16 MiB, and ranks on four
// psets each write a burst of up to 32 chunks in all, with gaps, to files
// of their own. Once every write returned and the drains ran out,
// absorbed bytes must equal drained plus lost plus still-buffered ones,
// no node may have held more than its capacity, and fifo, which
// dispatches every drain at once, must never have built a backlog.
func FuzzFleetDrain(f *testing.F) {
	f.Add([]byte{})                                          // private fleet, fifo, no buffer
	f.Add([]byte{0, 0, 4, 0, 3, 0, 255, 3, 1, 128, 7, 2})    // private, fifo, spills
	f.Add([]byte{2, 1, 8, 1, 15, 0, 2, 15, 0, 3, 15, 0})     // 3 shared nodes, deadline
	f.Add([]byte{7, 2, 16, 10, 63, 5, 200, 63, 5, 90, 1, 9}) // 8 nodes, tenant
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		cfg := DefaultConfig()
		if n := next(); n%9 != 0 {
			cfg.FleetNodes = n % 9
		}
		cfg.DrainPolicy = []string{"fifo", "deadline", "tenant"}[next()%3]
		cfg.BufferPerION = int64(next()%17) << 20
		type write struct {
			rank int
			n    int64
			gap  float64
		}
		var burst []write
		for len(in) > 0 && len(burst) < 32 {
			burst = append(burst, write{rank: next() * 4, n: int64(1+next()%64) << 16, gap: float64(next()%16) * 1e-3})
		}

		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(1024)) // 4 psets
		fs := mustNew(t, m, cfg)
		byRank := map[int][]write{}
		var ranks []int
		for _, w := range burst {
			if byRank[w.rank] == nil {
				ranks = append(ranks, w.rank)
			}
			byRank[w.rank] = append(byRank[w.rank], w)
		}
		for _, rank := range ranks {
			writes := byRank[rank]
			k.Go(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
				h, err := fs.Create(p, rank, fmt.Sprintf("f%d", rank))
				if err != nil {
					t.Error(err)
					return
				}
				var off int64
				for _, w := range writes {
					p.Sleep(w.gap)
					if err := h.WriteAt(p, rank, off, data.Synthetic(w.n)); err != nil {
						t.Error(err)
					}
					off += w.n
				}
				if err := h.Close(p, rank); err != nil {
					t.Error(err)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		st := fs.Buffer()
		if got := st.DrainedBytes + st.LostBytes + fs.BufferedBytes(); got != st.AbsorbedBytes {
			t.Fatalf("%+v: absorbed %d bytes, but drained %d + lost %d + buffered %d = %d",
				cfg, st.AbsorbedBytes, st.DrainedBytes, st.LostBytes, fs.BufferedBytes(), got)
		}
		if st.PeakUsedBytes > cfg.BufferPerION {
			t.Fatalf("a node held %d bytes, capacity %d", st.PeakUsedBytes, cfg.BufferPerION)
		}
		if cfg.DrainPolicy == "fifo" && st.PeakBacklogBytes != 0 {
			t.Fatalf("fifo built a %d-byte drain backlog", st.PeakBacklogBytes)
		}
	})
}
