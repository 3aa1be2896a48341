# Developer entry points. The repo is pure Go with no dependencies beyond the
# toolchain; everything below is a thin wrapper over the go tool.

GO ?= go

.PHONY: build test check bench perf

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: formatting, static analysis of both modules (bench/
# is its own), a full build, and CI's three race steps: the experiment
# runner, fault injection with the storage stack, and the kernel's coroutine
# baton with MPI and the strategies on sharded lanes.
check:
	test -z "$$(gofmt -l .)"
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race ./internal/exp/...
	$(GO) test -race ./internal/fault/... ./internal/storage/... ./internal/bbuf/...
	$(GO) test -race ./internal/sim/... ./internal/mpi/... ./internal/ckpt/...

# bench runs the perf-regression microbenchmarks (event calendar churn,
# process handoff, resource ring).
bench:
	$(GO) test -run xxx -bench 'KernelEventChurn|ProcHandoff|ResourceQueue' -benchmem .

# perf runs the repository benchmark (BENCHMARK.json): the four end-to-end
# workloads timed in fresh processes, with per-layer probes. bench/README.md
# shows how to write a result file and compare two commits with benchdiff.
perf:
	bash bench/run.sh
