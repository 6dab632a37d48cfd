# Developer entry points. `make check` is the full gate a PR must pass;
# its one definition is scripts/check.sh, which runs the lanes vet
# (standard plus the kylix-vet invariant analyzers), build, test, race
# (the concurrency-critical packages — transports, mailbox, reduction
# core, fault fabric, replication, membership, worker pool, stream
# registry — and the stream lifecycle under the race detector), soak
# (the elastic-membership and multi-tenant stream chaos soaks on both
# transports) and benchgate (the allocation gate on the warm reduction
# hot path). Each lane is also a target of its own.

GO ?= go
KYLIX_VET := bin/kylix-vet

.PHONY: check vet kylix-vet build test race soak benchgate bench profile fuzz lint

check:
	GO=$(GO) scripts/check.sh

vet build test race soak benchgate:
	GO=$(GO) scripts/check.sh $@

kylix-vet:
	@mkdir -p bin
	$(GO) build -o $(KYLIX_VET) ./cmd/kylix-vet

# Hot-path benchmarks with memory accounting; writes BENCH_reduce.json.
bench:
	scripts/bench.sh

# Optional deep-lint lane: staticcheck + govulncheck, pinned via go run.
# Needs network access to the module proxy; skips gracefully offline.
lint:
	scripts/lint.sh

# CPU + heap profiles of the paper-evaluation run at quick scale.
# Inspect with: go tool pprof cpu.pprof (or mem.pprof).
profile:
	$(GO) run ./cmd/kylix-bench -scale quick -exp fig6,fig8 -cpuprofile cpu.pprof -memprofile mem.pprof
	@echo "wrote cpu.pprof and mem.pprof; inspect with: go tool pprof cpu.pprof"

# A quick pass over the fault fabric's determinism fuzzer.
fuzz:
	$(GO) test -run FuzzDecide -fuzz FuzzDecide -fuzztime 10s ./internal/faultnet/
