GO ?= go

.PHONY: build test race vet fmt-check reach bench-once bench-smoke experiments fuzz campaign-scale-smoke api apicheck ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage on the packages that own concurrency: the worker pool, the
# DES kernel it drives, the server model (whose blocking Serve adapter is
# where driver-context steps and a process goroutine touch the same call),
# the coordinator (event stream + cancellation), the live platforms (an
# agent's fired requests record into its client while its polls read it),
# the lab target (concurrent handlers bump its counters and append to its
# access log),
# the experiments/campaign layers that fan out on it, and the root
# package's whole-experiment oracles (the request-path golden, the kernel
# cost counters). The three catalog tests are about numbers, not
# concurrency: they re-run, one after another, experiment functions the
# shape tests beside them already run under the detector (~90 s of it), so
# they are left to `make test`.
race:
	$(GO) test -race -skip 'TestPaperFidelity|TestExperimentsDoc|TestCatalogGolden' ./internal/runner ./internal/netsim ./internal/websim ./internal/core ./internal/liveplat ./internal/labtarget ./internal/scenario ./internal/experiments ./internal/campaign ./internal/campaign/dist ./internal/campaign/dist/lease ./internal/campaign/serve ./internal/analyze ./internal/obs
	$(GO) test -race -run 'Golden|Kernel' .

# API-surface lock: api.txt is the checked-in `go doc -all` of the public
# package. `make api` regenerates it after an intentional API change;
# `make apicheck` fails when the surface drifted without the file being
# updated, so PRs cannot silently break the public contract.
api:
	$(GO) doc -all . > api.txt

apicheck:
	@cur=$$(mktemp); trap 'rm -f "$$cur"' EXIT; \
	$(GO) doc -all . > "$$cur" || exit 1; \
	if ! diff -u api.txt "$$cur"; then \
		echo "public API surface drifted: run 'make api' and review the diff"; exit 1; fi

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Non-test code is code a binary reaches and a setting is one a caller
# sets (DESIGN.md "Layering"): build every main package and the benchmark
# module, and fail on any declared function in no binary's symbol table;
# type-check both modules from source, and fail on any exported struct
# field no non-test code writes; either unless the test's allowlist names
# it (~60s cold, ~10s warm).
reach:
	$(GO) test -count=1 -run '^(TestEveryFuncIsReached|TestEveryFieldIsWritten)$$' -reach .

# One iteration of the whole-experiment and flash-crowd-job benchmarks at
# both GOMAXPROCS, the timer arm+cancel cycle, one site sample per band and
# one thin campaign job: they must still run, nothing is compared.
bench-once:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatedExperiment|BenchmarkScenarioFlashCrowd' -benchtime 1x -benchmem -cpu 1,2 .
	$(GO) test -run '^$$' -bench BenchmarkTimerCancel -benchtime 1000x -benchmem ./internal/netsim
	$(GO) test -run '^$$' -bench 'BenchmarkSampleAt|BenchmarkMeasureThin' -benchtime 1x -benchmem ./internal/population ./internal/campaign

# The benchmark is a nested module (benchmark/go.mod), so `./...` above
# never compiles it: vet it and run its own tests against this tree, so an
# API change that breaks the benchmark's build is caught here (~3s).
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test ./...

# Regenerate EXPERIMENTS.md's catalog rows from experiments.Catalog, then
# print every table. The drift check is the same test without -update, an
# ordinary part of `make test`.
experiments:
	$(GO) test ./internal/experiments -run 'TestExperimentsDoc' -update
	$(GO) run ./cmd/mfc-experiments

# Short coverage-guided fuzz runs over the hostile-input parsers, the
# site generator against its oracle, the random source against
# math/rand and the link's insert-time waterfill order against the
# sort-then-waterfill oracle (the checked-in seed corpora also run as
# plain unit tests under `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShardTail$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeLine$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzLease$$' -fuzztime 10s ./internal/campaign/dist/lease
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioConfig$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeShard$$' -fuzztime 10s ./internal/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzSpanIngest$$' -fuzztime 10s ./internal/campaign/serve
	$(GO) test -run '^$$' -fuzz '^FuzzGenerate$$' -fuzztime 10s ./internal/content
	$(GO) test -run '^$$' -fuzz '^FuzzSource$$' -fuzztime 10s ./internal/rng
	$(GO) test -run '^$$' -fuzz '^FuzzLinkOps$$' -fuzztime 10s ./internal/netsim

# The multi-process scenarios — three workers over a shared dir or joined
# to a `serve` control plane, one killed -9 mid-shard; report and analytics
# byte-identical to the single-process run; /metrics against the report
# header; the straggler gauge and the merged fleet trace — are Go tests in
# cmd/mfc-campaign that re-execute the real main, so `make test` runs them.
# This is the one kept out of tier-1: the kill -9 worker test over a
# 10k-site plan (20 shards at the default 512 ShardJobs).
campaign-scale-smoke:
	$(GO) test -count=1 -run '^TestWorkersKillNineByteIdentical$$' ./cmd/mfc-campaign -scale

ci: build vet fmt-check apicheck test reach bench-smoke race
