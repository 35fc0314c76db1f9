# Standard developer entry points. Everything is stdlib-only Go.

GO ?= go

.PHONY: all build test race cover bench reproduce tables figures verify fmt-check trace-demo drain-smoke clean

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
# vet + tests of the separate perfbench benchmark module (so a rename of
# anything it imports fails here rather than at the next benchmark run),
# a race-detector pass over the packages with concurrent hot paths (the
# DES kernel, the metrics registry, the flight recorder, the shared
# worker pool, the solver workspaces, the sweep/Monte-Carlo drivers, the
# replicated measurement campaigns, the DES testbed, the HTTP handlers,
# the BN inference engine), an explicit CTMC-vs-Bayes cross-validation
# pass (the two backends must agree on the paper's configurations within
# tolerance — the multi-backend contract), a benchmark smoke run (1
# iteration each) to catch bit-rot in the bench
# harness, and an allocation smoke check: one iteration of the unsharded
# campaign must stay under MAX_CAMPAIGN_ALLOCS allocations (the pooled
# kernel runs a 400-injection campaign in ~9.2k allocs; losing the Sim,
# cluster, or event free-list reuse multiplies that, and this gate
# catches the regression before it erodes the interactive-campaign
# latency budget).
#
# A second gate keeps the live-telemetry plane effectively free: the
# 2000-injection campaign with a progress tracker and availability time
# series attached (BenchmarkCampaignTelemetryOn) must stay within
# MAX_TELEMETRY_RATIO of the plain campaign. On/Off are measured
# back-to-back within each round and the gate takes the best ratio of
# three rounds — a load spike inflates both sides of a round roughly
# equally, so the paired ratio stays meaningful on a busy single-CPU
# host where raw ns/op swings ±30%.
#
# A third gate protects the async job engine's reason to exist: a result
# served from the LRU cache must be at least MIN_JOBCACHE_SPEEDUP times
# faster than computing it (the miss path runs a real 100-sample
# uncertainty analysis, so the ratio is measured against genuine solver
# work — it sits around 1,600–1,800× on an idle 2-CPU host, and 100×
# leaves room for load noise without ever passing on a broken cache).
# A fourth gate bounds the correlated-injection tax: the 2000-injection
# campaign with fault domains, a common-cause fraction, and a partition
# fraction (BenchmarkCampaignCorrelated) must stay within
# MAX_CORRELATED_RATIO of the independent campaign. The correlated path
# genuinely does more simulation work (multi-component bursts, partition
# heal events, per-cause accounting), so the bound is looser than the
# telemetry gate, but it still catches accidental per-injection overhead
# leaking into the independent-dominated mix. Measured back-to-back,
# best-of-3, same as the telemetry gate.
MAX_CAMPAIGN_ALLOCS ?= 12000
MAX_TELEMETRY_RATIO ?= 1.10
MIN_JOBCACHE_SPEEDUP ?= 100
MAX_CORRELATED_RATIO ?= 1.25

verify: fmt-check
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...
	$(GO) test -race ./internal/des/... ./internal/obs/... ./internal/progress/... ./internal/trace/... ./internal/ctmc/... ./internal/jsas/... ./internal/pool/... ./internal/sensitivity/... ./internal/testbed/... ./internal/uncertainty/... ./internal/faultinject/... ./internal/workload/... ./internal/httpapi/... ./internal/jobs/... ./internal/bayes/...
	@echo "verify: cross-validating the bayes backend against the CTMC engine"
	$(GO) test -run 'TestBayesCTMCCrossValidation|TestClusterBackendsAgree|TestRedundancyBackendsAgree' -count=1 ./internal/jsas ./internal/spec
	$(GO) run ./cmd/bench-record -bench 'Table2|SteadyStateGS200|SweepParallel' -benchtime 1x -out /tmp/bench-smoke.json
	@$(GO) run ./cmd/bench-record -bench 'CampaignUnsharded' -benchtime 1x -benchmem -out /tmp/bench-allocs.json; \
	allocs="$$($(GO) run ./cmd/bench-record -print-metric allocs/op -in /tmp/bench-allocs.json)"; \
	echo "verify: BenchmarkCampaignUnsharded allocs/op = $$allocs (max $(MAX_CAMPAIGN_ALLOCS))"; \
	[ "$${allocs%.*}" -le "$(MAX_CAMPAIGN_ALLOCS)" ] || { echo "verify: allocation regression in BenchmarkCampaignUnsharded"; exit 1; }
	@best=""; for i in 1 2 3; do \
		$(GO) run ./cmd/bench-record -bench 'CampaignTelemetry(On|Off)$$' -benchtime 300ms -out /tmp/bench-telemetry.json 2>/dev/null; \
		off="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'TelemetryOff' -in /tmp/bench-telemetry.json)"; \
		on="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'TelemetryOn' -in /tmp/bench-telemetry.json)"; \
		r="$$(awk -v on="$$on" -v off="$$off" 'BEGIN { printf "%.4f", on/off }')"; \
		echo "verify: telemetry round $$i: on=$$on off=$$off ratio=$$r"; \
		if [ -z "$$best" ] || awk -v a="$$r" -v b="$$best" 'BEGIN { exit !(a < b) }'; then best="$$r"; fi; \
	done; \
	echo "verify: campaign telemetry overhead: best-of-3 ratio $$best (max $(MAX_TELEMETRY_RATIO))"; \
	awk -v r="$$best" -v max="$(MAX_TELEMETRY_RATIO)" \
		'BEGIN { if (r > max) { printf "verify: telemetry overhead ratio %s exceeds %s\n", r, max; exit 1 } }'
	@$(GO) run ./cmd/bench-record -bench 'JobCache(Hit|Miss)$$' -benchtime 200ms -out /tmp/bench-jobcache.json 2>/dev/null; \
	miss="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'JobCacheMiss' -in /tmp/bench-jobcache.json)"; \
	hit="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'JobCacheHit' -in /tmp/bench-jobcache.json)"; \
	speedup="$$(awk -v m="$$miss" -v h="$$hit" 'BEGIN { printf "%.0f", m/h }')"; \
	echo "verify: job cache: miss=$$miss ns/op hit=$$hit ns/op speedup=$${speedup}x (min $(MIN_JOBCACHE_SPEEDUP)x)"; \
	awk -v s="$$speedup" -v min="$(MIN_JOBCACHE_SPEEDUP)" \
		'BEGIN { if (s < min) { printf "verify: job cache hit only %sx faster than miss (min %sx)\n", s, min; exit 1 } }'
	@best=""; for i in 1 2 3; do \
		$(GO) run ./cmd/bench-record -bench 'Campaign(Unsharded|Correlated)$$' -benchtime 300ms -out /tmp/bench-correlated.json 2>/dev/null; \
		ind="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'CampaignUnsharded' -in /tmp/bench-correlated.json)"; \
		cor="$$($(GO) run ./cmd/bench-record -print-metric ns/op -select 'CampaignCorrelated' -in /tmp/bench-correlated.json)"; \
		r="$$(awk -v c="$$cor" -v i="$$ind" 'BEGIN { printf "%.4f", c/i }')"; \
		echo "verify: correlated round $$i: correlated=$$cor independent=$$ind ratio=$$r"; \
		if [ -z "$$best" ] || awk -v a="$$r" -v b="$$best" 'BEGIN { exit !(a < b) }'; then best="$$r"; fi; \
	done; \
	echo "verify: correlated campaign overhead: best-of-3 ratio $$best (max $(MAX_CORRELATED_RATIO))"; \
	awk -v r="$$best" -v max="$(MAX_CORRELATED_RATIO)" \
		'BEGIN { if (r > max) { printf "verify: correlated overhead ratio %s exceeds %s\n", r, max; exit 1 } }'

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

# One benchmark iteration per table/figure: regenerates the paper's rows
# as b.ReportMetric values, then records the solver and measurement
# benchmarks as a machine-readable performance snapshot for THIS PR.
# Snapshots are per-PR — `make bench PR=6` writes BENCH_PR6.json and
# leaves every earlier BENCH_PR*.json untouched, so speedups stay
# auditable across the whole PR sequence (BENCH_PR3.json and
# BENCH_PR4.json are the pre-rebuild baselines). PR has no default, so a
# bare `make bench` fails instead of overwriting an earlier snapshot.
bench:
	@[ -n "$(PR)" ] || { echo "bench: set PR=<number>; the snapshot is written to BENCH_PR<number>.json"; exit 1; }
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/bench-record -bench 'Sweep|Uncertainty|Table|Campaign(Unsharded|Replicated|Telemetry|Correlated|Partition)|LongevitySeries|JobCache(Hit|Miss|Coalesced)|BayesSolve|CTMCSolveCluster' -benchtime 500ms -benchmem -out BENCH_PR$(PR).json

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
