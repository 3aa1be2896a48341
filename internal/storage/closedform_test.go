package storage

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// TestSingleWriterClosedForm holds a lone writer's WriteAt to the closed
// form of an idle storage path, derived from Config and the machine alone:
// one rank on a quiet file system (no noise, no faults) creates a file and
// appends writes of several sizes, some straddling blocks and some above
// the funnel's express cutoff, each issued once the previous returned, so
// every pipe it reaches is idle.
//
//   - The payload cuts through the pset funnel: its latency plus n over its
//     bandwidth (express or not, on an idle funnel the same).
//   - On GPFS the rank first takes a token for every block it has not
//     touched yet, tokenGrant each, at the idle metanode; the client stream
//     then carries n at ClientStreamBW, and write-behind returns at the
//     later of the stream's and the funnel's end.
//   - On PVFS (no tokens) the same stream feeds a synchronous commit, one
//     request per server revolution: the revolution leaves the stream at
//     its cumulative bytes over ClientStreamBW, crosses the ION's NIC and
//     the switch core, and lands its per-server share after the server
//     latency; the write returns when the last revolution landed.
func TestSingleWriterClosedForm(t *testing.T) {
	for _, fsName := range []string{"gpfs", "pvfs"} {
		k := sim.NewKernel()
		m := machine.MustNew(k, xrand.New(1), machine.Intrepid(256))
		var c *Core
		var err error
		if fsName == "gpfs" {
			cfg := DefaultGPFS()
			cfg.NoiseProb = 0
			c, err = NewGPFS(m, cfg)
		} else {
			cfg := DefaultPVFS()
			cfg.NoiseProb = 0
			c, err = NewPVFS(m, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		cfg := c.cfg
		const rank = 0
		funnel := m.Tree.Pset(m.PsetOfRank(rank))
		nic, core := m.Eth.NIC(m.PsetOfRank(rank)), m.Eth.Core()
		bs := cfg.BlockSize
		sizes := []int64{1, 4096, bs + 3, 3*bs + 17, ExpressCutoff + 1, 20 << 20}

		// want is the closed form of a write of n bytes at off issued at t0,
		// with granted the blocks whose tokens the rank already holds.
		granted := map[int64]bool{}
		want := func(t0 float64, off, n int64) float64 {
			treeEnd := t0 + funnel.Latency + float64(n)/funnel.BW
			start := t0
			if fsName == "gpfs" {
				grants := 0
				for b := off / bs; b <= (off+n-1)/bs; b++ {
					if !granted[b] {
						grants++
						granted[b] = true
					}
				}
				if grants > 0 {
					start += float64(grants) * tokenGrant
				}
			}
			streamEnd := max(start+float64(n)/cfg.ClientStreamBW, treeEnd)
			if fsName == "gpfs" {
				return streamEnd
			}
			streamBase := streamEnd - float64(n)/cfg.ClientStreamBW
			end := streamBase
			revolution := bs * int64(cfg.NumServers)
			var cum int64
			for lo := off; lo < off+n; {
				hi := min(off+n, (lo/revolution+1)*revolution)
				span := hi - lo
				cum += span
				deliver := streamBase + float64(cum)/cfg.ClientStreamBW
				nicDone := deliver + nic.Latency + float64(span)/nic.BW
				ethEnd := nicDone - float64(span)/nic.BW + core.Latency + float64(span)/core.BW
				if ethEnd < nicDone {
					ethEnd = nicDone + core.Latency
				}
				share := span / int64(cfg.NumServers)
				if share == 0 {
					share = span
				}
				end = max(end, ethEnd+serverLat+float64(share)/cfg.ServerBW)
				lo = hi
			}
			return end
		}

		k.Go("writer", func(p *sim.Proc) {
			h, err := c.Create(p, rank, "f")
			if err != nil {
				t.Error(err)
				return
			}
			var off int64
			for _, n := range sizes {
				t0 := p.Now()
				w := want(t0, off, n)
				if err := h.WriteAt(p, rank, off, data.Synthetic(n)); err != nil {
					t.Errorf("%s: write of %d B: %v", fsName, n, err)
					return
				}
				got := p.Now() - t0
				if d := math.Abs(got - (w - t0)); d > 1e-12*(w-t0) {
					t.Errorf("%s: write of %d B at %d took %.15g s, closed form %.15g s", fsName, n, off, got, w-t0)
				}
				off += n
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
