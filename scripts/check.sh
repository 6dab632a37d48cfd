#!/usr/bin/env sh
# The PR gate — its one definition. `make check` and CI run it whole;
# the per-lane make targets (vet, build, test, race, soak, benchgate)
# run single lanes through it:
#
#   scripts/check.sh            # every lane, in order
#   scripts/check.sh vet race   # just those lanes
#
# Lanes: vet (standard plus the kylix-vet invariant analyzers), build
# (the root module and the perfbench module), test, race (the
# concurrency-critical packages, the stream lifecycle and the
# reconfigure chaos soak under the race detector), soak (the
# elastic-membership and multi-tenant stream chaos soaks on both
# transports) and benchgate (the warm-Reduce allocation gate). GO
# selects the go command.
set -eu

cd "$(dirname "$0")/.."
GO=${GO:-go}

lane_vet() {
	echo "== go vet ./..."
	$GO vet ./...

	echo "== kylix-vet (hotpathalloc, lockobs, determinism, commcheck, goleak, lockorder, atomicmix)"
	mkdir -p bin
	$GO build -o bin/kylix-vet ./cmd/kylix-vet
	$GO vet -vettool=bin/kylix-vet ./...
}

lane_build() {
	echo "== go build ./..."
	$GO build ./...

	# perfbench is a module of its own, compiled against internal
	# packages: build, vet and test it so an internal API change cannot
	# break the benchmark with every other lane green. (-o /dev/null:
	# its one main package would otherwise leave a binary in the tree.)
	echo "== perfbench: go build, vet, test"
	$GO -C perfbench build -o /dev/null ./...
	$GO -C perfbench vet ./...
	$GO -C perfbench test ./...
}

lane_test() {
	echo "== go test ./..."
	$GO test ./...
}

lane_race() {
	echo "== go test -race -short (comm, core, faultnet, memnet, tcpnet, replica, trace, netsim, obs, membership, par, stream)"
	$GO test -race -short ./internal/comm/... ./internal/core/... ./internal/faultnet/... ./internal/memnet/... ./internal/tcpnet/... ./internal/replica/... ./internal/trace/... ./internal/netsim/... ./internal/obs/... ./internal/membership/... ./internal/par/... ./internal/stream/...

	echo "== go test -race (stream lifecycle: concurrent tenants, close hammer; incremental reconfiguration under chaos)"
	$GO test -race -run 'TestStreamIsolation64|TestStreamBackpressure|TestStreamCloseSemantics|TestClusterClose|TestReconfigureChaosSoak' -count=1 -timeout 600s .
}

lane_soak() {
	echo "== elastic membership chaos soak (both transports)"
	$GO test -run 'TestElasticChurn|TestTCPChurnSoak' -count=1 . ./internal/replica/

	echo "== multi-tenant stream chaos soak (both transports)"
	$GO test -run 'TestStreamIsolationChaos' -count=1 .
}

# The zero-allocation regression gate: fails if a warm Reduce benchmark
# (plain, with the observability layer, or quantized) reports >0
# allocs/op, or if the observed run got >10% slower than the number
# recorded in BENCH_reduce.json. Runs the full bench sweep as a side
# effect.
lane_benchgate() {
	echo "== bench gate (warm Reduce must be allocation-free)"
	scripts/bench.sh --gate
}

lanes=${*:-vet build test race soak benchgate}
for lane in $lanes; do
	case $lane in
	vet | build | test | race | soak | benchgate) "lane_$lane" ;;
	*)
		echo "check.sh: unknown lane $lane" >&2
		exit 2
		;;
	esac
done

echo "check OK: $lanes"
