package bbuf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// SpecError reports a malformed fleet spec; the CLIs exit 2 on it.
type SpecError struct {
	Spec string
	Want string // what the spec needs instead
}

func (e *SpecError) Error() string {
	return fmt.Sprintf("bbuf: invalid fleet spec %q (want %s, e.g. \"8x0.25\")", e.Spec, e.Want)
}

// ParseFleetSpec parses the CLI fleet spec "<nodes>x<gbps>" (e.g. "8x0.25":
// an 8-node fleet draining 0.25 GB/s per node) or the bare "<nodes>" form,
// which keeps the backend's default drain bandwidth (gbps returns 0). The
// empty string is the legacy shape: nodes 0 (one private node per ION) at
// the default bandwidth. Non-positive node counts and non-positive or
// non-finite bandwidths are rejected with a *SpecError, so the CLIs can
// exit 2 on a bad -bb before any simulation runs.
func ParseFleetSpec(s string) (nodes int, gbps float64, err error) {
	if s == "" {
		return 0, 0, nil
	}
	nstr, bstr, hasBW := strings.Cut(s, "x")
	nodes, err = strconv.Atoi(nstr)
	if err != nil || nodes <= 0 {
		return 0, 0, &SpecError{s, `"<nodes>x<gbps>" with nodes >= 1`}
	}
	if !hasBW {
		return nodes, 0, nil
	}
	gbps, err = strconv.ParseFloat(bstr, 64)
	if err != nil || !(gbps > 0) || math.IsInf(gbps, 1) {
		return 0, 0, &SpecError{s, "a finite positive per-node GB/s after the 'x'"}
	}
	return nodes, gbps, nil
}
