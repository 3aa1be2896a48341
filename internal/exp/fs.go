package exp

import (
	"repro/internal/fsys"

	// Backends self-register with the fsys registry from their package
	// inits; these imports are what make them mountable here.
	_ "repro/internal/bbuf"
	_ "repro/internal/gpfs"
	_ "repro/internal/pvfs"
)

// FileSystems lists the selectable storage backends, in presentation order.
// Every backend is a policy composition over the shared storage core
// (internal/storage), so each experiment runs unchanged on any of them.
var FileSystems = []fsys.Backend{"gpfs", "pvfs", "bbuf"}
