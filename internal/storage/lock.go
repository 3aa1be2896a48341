package storage

import "repro/internal/sim"

// TokenManager is the GPFS-style concurrency policy: byte-range tokens at
// block granularity, granted serially at the file's metanode. Blocks owned
// by another client must be revoked first — the nf=1 penalty (tens of
// thousands of token requests against a single shared file serialize) and
// the unaligned-write revocation storm both live here.
type TokenManager struct{}

var _ Concurrency = TokenManager{}

// TokenManager costs, seconds.
const (
	tokenGrant  float64 = 0.45e-3 // per-block grant cost
	tokenRevoke float64 = 5e-3    // cost of revoking a token another client holds
)

// AcquireWrite implements Concurrency: the tokens for [off, off+n) of f
// the rank's ION lacks, counted as the write arrives, serialized at the
// file's metanode.
func (TokenManager) AcquireWrite(c *Core, rank int, f *File, off, n int64) LockWait {
	client := c.m.PsetOfRank(rank)
	var w LockWait
	for b := off / c.cfg.BlockSize; b <= (off+n-1)/c.cfg.BlockSize; b++ {
		owner, held := f.tokens[b]
		switch {
		case !held:
			w.grants++
		case owner != client:
			w.revokes++
		}
	}
	if w.grants == 0 && w.revokes == 0 {
		return LockWait{}
	}
	if f.tokenQ == nil {
		f.tokenQ = sim.NewResource(1)
	}
	w.Q = f.tokenQ
	w.Service = float64(w.grants)*tokenGrant + float64(w.revokes)*(tokenGrant+tokenRevoke)
	return w
}

// Granted implements Concurrency: the ION owns every block of the write.
func (TokenManager) Granted(c *Core, rank int, f *File, off, n int64, w LockWait) {
	client := c.m.PsetOfRank(rank)
	if f.tokens == nil {
		f.tokens = make(map[int64]int)
	}
	for b := off / c.cfg.BlockSize; b <= (off+n-1)/c.cfg.BlockSize; b++ {
		f.tokens[b] = client
	}
	w.Q.Release()
	c.Stats.TokenGrants += w.grants
	c.Stats.TokenRevokes += w.revokes
}

// LockFree is the PVFS-style concurrency policy: no locking at all;
// applications are responsible for non-conflicting writes.
type LockFree struct{}

var _ Concurrency = LockFree{}

// AcquireWrite implements Concurrency: nothing to wait on (no time, no
// RNG draws).
func (LockFree) AcquireWrite(c *Core, rank int, f *File, off, n int64) LockWait { return LockWait{} }

// Granted implements Concurrency; LockFree never waits, so nothing calls
// it.
func (LockFree) Granted(c *Core, rank int, f *File, off, n int64, w LockWait) {}
