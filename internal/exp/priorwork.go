package exp

import (
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/nekcem"
	"repro/internal/storage"
)

// PriorWorkRow compares the paper's cited prior-work results (reference
// [3]: rbIO on a 32K-processor Blue Gene/L — 2.3 GB/s raw write bandwidth
// and 21 TB/s perceived) against the same strategy run on the BG/L machine
// model.
type PriorWorkRow struct {
	Machine       string  `col:"machine"`
	NP            int     `col:"np"`
	GBps          float64 `col:"write (GB/s)" fmt:"%.2f"`
	PerceivedTBps float64 `col:"perceived (TB/s)" fmt:"%.0f"`
}

// bglGPFS returns BG/L-era storage constants: the ANL BG/L's SAN was an
// order of magnitude smaller than Intrepid's (32 servers, slower client
// streams).
func bglGPFS() storage.GPFSConfig {
	cfg := storage.DefaultGPFS()
	cfg.NumServers = 32
	cfg.ServerBW = 80e6
	cfg.ClientStreamBW = 20e6
	return cfg
}

// bglMPI returns BG/L-era messaging constants: roughly a third of BG/P's
// memory bandwidth for the non-blocking send hand-off.
func bglMPI() mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.LocalCopyBW = 2e9
	return cfg
}

// PriorWorkBGL runs the paper's headline rbIO configuration at 32K ranks on
// the Blue Gene/L model (and, for contrast, on Intrepid).
func PriorWorkBGL(o Options) ([]PriorWorkRow, error) {
	const np = 32768
	var rows []PriorWorkRow
	for _, machineName := range []string{"BG/L", "BG/P (Intrepid)"} {
		mcfg, gcfg, wcfg := machine.BlueGeneL(np), bglGPFS(), bglMPI()
		if machineName != "BG/L" {
			mcfg, gcfg, wcfg = machine.Intrepid(np), storage.DefaultGPFS(), mpi.DefaultConfig()
		}
		sc := scenario{NP: np, Stream: streamSeed, MachineCfg: &mcfg, GPFSCfg: &gcfg, MPICfg: &wcfg}
		_, res, err := simulate(o, sc, nekcem.PaperRun(np, DefaultRbIOWithGroup(64), 1, 1), "priorwork/"+machineName)
		if err != nil {
			return nil, err
		}
		c := res.Checkpoints[0]
		rows = append(rows, PriorWorkRow{
			Machine:       machineName,
			NP:            np,
			GBps:          GB(c.Bandwidth()),
			PerceivedTBps: c.PerceivedBandwidth() / 1e12,
		})
	}
	return rows, nil
}
