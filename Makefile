# BOW reproduction — convenience targets.

GO ?= go

.PHONY: all build vet lint lint-fix-check test race cluster-smoke trace-smoke failover-smoke bench bench-all repro examples cover clean

all: build lint test

build:
	$(GO) build ./...

# bowvet is built once into bin/ and reused; its -V=full stamp hashes
# the binary, so go vet's result cache invalidates itself whenever the
# passes change.
bin/bowvet: $(wildcard cmd/bowvet/*.go internal/analysis/*.go) go.mod
	$(GO) build -o bin/bowvet ./cmd/bowvet

# lint is the full static gate: stock go vet first, then the repo's own
# invariant passes (determinism, hotpathalloc, nilguardtrace, locksafe,
# statecover, resetcover, annotcheck) driven through
# the same vet harness. `go run ./cmd/bowvet ./...` is the cache-free
# equivalent of the second step; add `-json` there for the flat
# machine-readable findings array.
lint: bin/bowvet
	$(GO) vet ./...
	$(GO) vet -vettool=$(CURDIR)/bin/bowvet ./...

vet: lint

# lint-fix-check guards the annotation layer the coverage passes stand
# on: annotcheck (typoed directives, missing reasons, dangling and
# stale markers) over the whole tree, then the per-pass fixture tests
# and the repository-clean proof. Run it after editing any //bow:
# annotation or an analysis pass.
lint-fix-check:
	$(GO) run ./cmd/bowvet -pass annotcheck ./...
	$(GO) test -run 'Fixture|RepositoryClean' ./internal/analysis/

# The default test gate includes lint, the race detector, and the
# failover differential smoke: the job engine (internal/simjob)
# simulates concurrently, so every test run also proves the pool's
# thread safety, and the durable tier's crash/replay path is exercised
# end to end.
test: lint cluster-smoke trace-smoke failover-smoke
	$(GO) test ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# End-to-end cluster run: a sweep submitted over HTTP to a coordinator
# in front of 3 in-process workers, one of which is crashed mid-job.
# The streamed results must be byte-identical to a single-node run.
# The failover scenario rides along: a durable (WAL-backed) coordinator
# is killed mid-sweep and its warm standby must replay the log and
# finish the sweep byte-identical to an uninterrupted cold run.
cluster-smoke: failover-smoke
	$(GO) test -run TestClusterSmoke -count=1 -v ./internal/cluster

# Failover differential smoke on its own (also part of cluster-smoke
# and the default test gate).
failover-smoke:
	$(GO) test -run 'TestFailoverSmoke|TestStandbyTailAndReadyz' -count=1 -v ./internal/durable

# End-to-end observability run: a traced sweep against a coordinator in
# front of 3 in-process workers must reconstruct spans from all three
# hops (coordinator, worker, engine) under one trace ID.
trace-smoke:
	$(GO) test -run TestTraceSmoke -count=1 -v ./internal/cluster

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Regenerate every table and figure of the paper.
repro:
	$(GO) run ./cmd/bowbench

# Simulator-throughput benchmarks: the cycles/sec harness (compared
# against the in-tree reference loop) plus the machine-readable report
# at the repo root. bowbench fails the run if any policy's allocs/cycle
# exceeds the gate (every bypass policy must stay ≤ 1.0).
bench:
	$(GO) test -run xxx -bench SimRate -benchmem .
	$(GO) run ./cmd/bowbench -simrate BENCH_simrate.json -allocgate 1.0 || \
		{ echo "allocgate tripped: a hot path allocates." ; \
		  echo "Run 'go run ./cmd/bowvet -pass hotpathalloc ./...' to find the site (//bow:hotpath functions must not allocate)." ; exit 1 ; }

# One testing.B per paper artifact + microbenchmarks.
bench-all:
	$(GO) test -bench=. -benchmem ./...

bench-log:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/windowsweep SAD
	$(GO) run ./examples/energystudy
	$(GO) run ./examples/customkernel

cover:
	$(GO) test -cover ./...

clean:
	$(GO) clean ./...
