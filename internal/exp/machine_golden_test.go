package exp

import (
	"fmt"
	"testing"

	"repro/internal/table"
)

// TestMachineRefactorGoldens pins the default Intrepid composition byte for
// byte against goldens generated before the machine-model extraction
// (internal/machine): fig5 and fscompare at seeds 1/3 and np 2048/4096,
// each verified at worker-pool sizes 1 and 4. Any drift in these tables
// means the topology/placement/interconnect seams changed the simulated
// physics of the default machine, not just its wiring.
func TestMachineRefactorGoldens(t *testing.T) {
	for _, np := range []int{2048, 4096} {
		for _, seed := range []uint64{1, 3} {
			if testing.Short() && np > 2048 {
				continue
			}
			name := fmt.Sprintf("np%d_seed%d", np, seed)
			for _, par := range []int{1, 4} {
				np, seed, par := np, seed, par
				t.Run(fmt.Sprintf("fig5_%s_par%d", name, par), func(t *testing.T) {
					t.Parallel()
					rows, err := Headline(Options{Seed: seed, NPs: []int{np}, Parallel: par})
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, "machine_fig5_"+name+".golden", Fig5Table(rows))
				})
				t.Run(fmt.Sprintf("fscompare_%s_par%d", name, par), func(t *testing.T) {
					t.Parallel()
					rows, err := FSComparison(Options{Seed: seed, NPs: []int{np}, Parallel: par}, np)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, "machine_fscompare_"+name+".golden", table.Of(rows))
				})
			}
		}
	}
}
