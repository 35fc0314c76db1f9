# Standard developer entry points. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race cover reproduce tables figures verify fmt-check trace-demo drain-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt cleanliness: fail listing any file that needs formatting.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: the following files need formatting:"; echo "$$out"; exit 1; fi

# Pre-merge verification: formatting, build, vet, the full test suite,
# the race-detector pass, vet + tests of the separate perfbench benchmark
# module (so a rename of anything it imports fails here rather than at
# the next benchmark run), and one iteration of every benchmark, which
# catches bit-rot in any of them. The backend cross-validation tests
# (TestBayesCTMCCrossValidation, TestClusterBackendsAgree,
# TestRedundancyBackendsAgree) are the multi-backend contract, and
# `go test ./...` runs them. The performance gates are Go code in the
# root package: TestCampaignAllocations and TestJobCacheSpeedup run with
# the tests, and the telemetry and correlated-campaign ratio gates
# (BenchmarkCampaign*Gate) run in the benchmark line, because a
# wall-time assertion running beside other packages' tests would flake;
# -p 1 keeps other packages' builds off the CPUs while they time.
verify: fmt-check build test race
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -p 1 -run '^$$' -bench . -benchtime 1x ./...

# Short traced fault-injection campaign: writes /tmp/jsas-trace.jsonl and
# prints the reconstructed outage timeline and downtime decomposition.
trace-demo:
	$(GO) run ./cmd/jsas-faultinject -n 150 -seed 1 -fir 0.2 -trace /tmp/jsas-trace.jsonl

# Graceful-shutdown smoke test: boot avail-server, put a Monte-Carlo
# request in flight, SIGTERM the server mid-request, and require both a
# clean (drained) exit and a completed response.
drain-smoke:
	@$(GO) build -o /tmp/avail-server-smoke ./cmd/avail-server
	@set -e; \
	/tmp/avail-server-smoke -addr 127.0.0.1:18080 -shutdown-timeout 15s & pid=$$!; \
	sleep 1; \
	curl -s "http://127.0.0.1:18080/v1/jsas/uncertainty?samples=5000" > /tmp/drain-smoke.json & req=$$!; \
	sleep 0.2; \
	kill -TERM $$pid; \
	wait $$pid || { echo "drain-smoke: server exited non-zero"; exit 1; }; \
	wait $$req || { echo "drain-smoke: in-flight request failed"; exit 1; }; \
	grep -q meanDowntimeMinutes /tmp/drain-smoke.json || { echo "drain-smoke: in-flight response truncated"; exit 1; }; \
	echo "drain-smoke: ok (server drained; in-flight request completed)"

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Full paper reproduction to stdout.
reproduce:
	$(GO) run ./examples/jsas-paper

tables:
	$(GO) run ./cmd/jsas-tables

figures:
	$(GO) run ./cmd/jsas-sweep -config 1
	$(GO) run ./cmd/jsas-sweep -config 2
	$(GO) run ./cmd/jsas-uncertainty -config 1
	$(GO) run ./cmd/jsas-uncertainty -config 2

clean:
	rm -f cover.out
