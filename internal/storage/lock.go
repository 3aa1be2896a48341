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

// AcquireWrite obtains byte-range tokens for [off, off+n) of f on behalf of
// the rank's ION.
func (TokenManager) AcquireWrite(p *sim.Proc, c *Core, rank int, f *File, off, n int64) {
	client := c.m.PsetOfRank(rank)
	first := off / c.cfg.BlockSize
	last := (off + n - 1) / c.cfg.BlockSize
	var grants, revokes int
	for b := first; b <= last; b++ {
		owner, held := f.tokens[b]
		switch {
		case !held:
			grants++
		case owner != client:
			revokes++
		}
	}
	if grants == 0 && revokes == 0 {
		return
	}
	f.tokenQ.Acquire(p)
	p.Sleep(float64(grants)*tokenGrant + float64(revokes)*(tokenGrant+tokenRevoke))
	for b := first; b <= last; b++ {
		f.tokens[b] = client
	}
	f.tokenQ.Release()
	c.Stats.TokenGrants += grants
	c.Stats.TokenRevokes += revokes
}

// LockFree is the PVFS-style concurrency policy: no locking at all;
// applications are responsible for non-conflicting writes.
type LockFree struct{}

var _ Concurrency = LockFree{}

// AcquireWrite implements Concurrency as a no-op (no time, no RNG draws).
func (LockFree) AcquireWrite(p *sim.Proc, c *Core, rank int, f *File, off, n int64) {}
