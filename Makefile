# Developer entry points. The repo is pure Go with no dependencies beyond the
# toolchain; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: build test check bench perf

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: formatting, static analysis, a full build, and the
# kernel + experiment-runner tests under the race detector (the parallel
# fan-out and the baton protocol are exactly the code -race can falsify).
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/sim/... ./internal/exp/... ./internal/machine/...

# bench runs the perf-regression microbenchmarks (event calendar churn,
# process handoff, resource ring).
bench:
	$(GO) test -run xxx -bench 'KernelEventChurn|ProcHandoff|ResourceQueue' -benchmem .

# perf runs the repository benchmark (BENCHMARK.json): the four end-to-end
# workloads timed in fresh processes, with per-layer probes. bench/README.md
# shows how to write a result file and compare two commits with benchdiff.
perf:
	bash bench/run.sh
