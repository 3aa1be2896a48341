package recover

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/fsys"
	"repro/internal/sim"
	"repro/internal/trace"
)

// scanRank is the world rank charged for a scan's metadata and read
// traffic: the recovering job's rank 0.
const scanRank = 0

// ScanResult summarizes one restart scan.
type ScanResult struct {
	Torn      int    // epochs detected torn (missing or incomplete manifest)
	Pick      *Epoch // newest fully-sealed epoch, nil when nothing survives
	ReadBytes int64  // manifest bytes read back through the storage stack
	Start     float64
	End       float64
}

// Scan walks the global level's epochs newest-first through the storage
// stack, exactly as a restarting job would: a torn epoch's manifest was
// never sealed, so its open fails (that failed metadata op is the
// detection); a sealed epoch's manifest — whose write was folded into the
// epoch's final commit — is materialized on first access and then read back
// with fully-charged traffic and checksum-verified. The newest sealed epoch
// wins and is marked verified (immune to later conservative invalidation).
// A positive before restricts the pick to epochs sealed at or before that
// time — the failure instant — so a restart never trusts state younger than
// the crash.
func Scan(p *sim.Proc, fs fsys.System, l *Log, before float64) (ScanResult, error) {
	res := ScanResult{Start: p.Now()}
	rec := p.Rec()
	epochs := l.Epochs(ckpt.LevelGlobal)
	for i := len(epochs) - 1; i >= 0; i-- {
		e := epochs[i]
		if before > 0 && e.FirstBlockAt > before {
			// Epoch younger than the failure: it belongs to an abandoned
			// attempt, not to the state being recovered.
			continue
		}
		path := e.ManifestPath()
		if e.Torn() {
			// The final commit never sealed this epoch, so the manifest does
			// not exist; the failed open is how a real restart detects the
			// tear.
			t0 := p.Now()
			if h, err := fs.Open(p, scanRank, path); err == nil {
				h.Close(p, scanRank)
			}
			if rec != nil {
				rec.Span(trace.LayerRecovery, "recover.torn", scanRank, t0, p.Now(), 0)
			}
			res.Torn++
			continue
		}
		if before > 0 && e.SealedAt > before {
			continue
		}
		if !fs.Exists(path) {
			// Sealed epochs materialize their manifest lazily: the bytes were
			// committed as part of the epoch's final commit (zero extra write
			// time by the determinism contract); only reads are charged.
			fs.PreloadBytes(path, l.Manifest(e))
		}
		t0 := p.Now()
		h, err := fs.Open(p, scanRank, path)
		if err != nil {
			return res, fmt.Errorf("recover: scan open %s: %w", path, err)
		}
		buf, err := h.ReadAt(p, scanRank, 0, h.Size())
		if err != nil {
			h.Close(p, scanRank)
			return res, fmt.Errorf("recover: scan read %s: %w", path, err)
		}
		if err := h.Close(p, scanRank); err != nil {
			return res, err
		}
		res.ReadBytes += buf.Len()
		if buf.Real() {
			if err := l.VerifyManifest(e, buf.Bytes()); err != nil {
				return res, err
			}
		}
		if rec != nil {
			rec.Span(trace.LayerRecovery, "recover.scan", scanRank, t0, p.Now(), buf.Len())
		}
		l.markVerified(e)
		res.Pick = e
		break
	}
	res.End = p.Now()
	return res, nil
}
