GO ?= go

.PHONY: build test race vet fmt-check bench-once bench-smoke experiments fuzz campaign-dist-smoke campaign-scale-smoke metrics-smoke serve-smoke analyze-smoke trace-smoke api apicheck ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race coverage on the packages that own concurrency: the worker pool, the
# DES kernel it drives, the server model (whose blocking Serve adapter is
# where driver-context steps and a process goroutine touch the same call),
# the coordinator (event stream + cancellation), the experiments/campaign
# layers that fan out on it, and the root package's whole-experiment
# oracles (golden, kernel differential).
race:
	$(GO) test -race ./internal/runner ./internal/netsim ./internal/websim ./internal/core ./internal/scenario ./internal/experiments ./internal/campaign ./internal/campaign/dist ./internal/campaign/dist/lease ./internal/campaign/serve ./internal/analyze ./internal/obs
	$(GO) test -race -run 'Golden|Kernel' .

# API-surface lock: api.txt is the checked-in `go doc -all` of the public
# package. `make api` regenerates it after an intentional API change;
# `make apicheck` fails when the surface drifted without the file being
# updated, so PRs cannot silently break the public contract.
api:
	$(GO) doc -all . > api.txt

apicheck:
	@$(GO) doc -all . > /tmp/api-current.txt; \
	if ! diff -u api.txt /tmp/api-current.txt; then \
		echo "public API surface drifted: run 'make api' and review the diff"; exit 1; fi

vet:
	$(GO) vet ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# One iteration of the whole-experiment and flash-crowd-job benchmarks at
# both GOMAXPROCS, and the timer arm+cancel cycle: they must still run,
# nothing is compared.
bench-once:
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatedExperiment|BenchmarkScenarioFlashCrowd' -benchtime 1x -benchmem -cpu 1,2 .
	$(GO) test -run '^$$' -bench BenchmarkTimerCancel -benchtime 1000x -benchmem ./internal/netsim

# The benchmark is a nested module (benchmark/go.mod), so `./...` above
# never compiles it: vet it and run its own tests against this tree, so an
# API change that breaks the benchmark's build is caught here (~3s).
bench-smoke:
	cd benchmark && $(GO) vet . && $(GO) test ./...

experiments:
	$(GO) run ./cmd/mfc-experiments

# Short coverage-guided fuzz runs over the hostile-input parsers (the
# checked-in seed corpora also run as plain unit tests under `make test`).
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzShardTail$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 10s ./internal/campaign
	$(GO) test -run '^$$' -fuzz '^FuzzLease$$' -fuzztime 10s ./internal/campaign/dist/lease
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioConfig$$' -fuzztime 10s ./internal/scenario
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeShard$$' -fuzztime 10s ./internal/analyze
	$(GO) test -run '^$$' -fuzz '^FuzzSanitizeMetricName$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzSanitizeLabelName$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzSpanIngest$$' -fuzztime 10s ./internal/campaign/serve

# The smokes below are what CI runs: every workflow step is a make target,
# so the sequences exist once.

# Distributed smoke: 3 `work` processes share one plan over a shared dir,
# one is killed -9 DIST_KILL_AFTER seconds after records exist (mid-shard,
# holding a lease), the survivors take its shards over, and the merged
# report must be byte-identical to the single-process run.
DIST_TAG ?= dist
DIST_PLAN ?= -bands rank-1K-10K -stages base,query -sites 100 -seed 11 -shard-jobs 16
DIST_KILL_AFTER ?= 0
campaign-dist-smoke:
	$(GO) build -o /tmp/mfc-campaign ./cmd/mfc-campaign
	rm -rf /tmp/camp-$(DIST_TAG)-base /tmp/camp-$(DIST_TAG)-shared
	/tmp/mfc-campaign plan -dir /tmp/camp-$(DIST_TAG)-base $(DIST_PLAN)
	/tmp/mfc-campaign run -dir /tmp/camp-$(DIST_TAG)-base -quiet
	/tmp/mfc-campaign report -dir /tmp/camp-$(DIST_TAG)-base > /tmp/camp-$(DIST_TAG)-base.txt
	/tmp/mfc-campaign plan -dir /tmp/camp-$(DIST_TAG)-shared $(DIST_PLAN)
	@set -e; \
	/tmp/mfc-campaign work -dir /tmp/camp-$(DIST_TAG)-shared -owner w1 -quiet & W1=$$!; \
	/tmp/mfc-campaign work -dir /tmp/camp-$(DIST_TAG)-shared -owner w2 -quiet & W2=$$!; \
	/tmp/mfc-campaign work -dir /tmp/camp-$(DIST_TAG)-shared -owner w3 -quiet & W3=$$!; \
	until [ -n "$$(ls -A /tmp/camp-$(DIST_TAG)-shared/shards 2>/dev/null)" ]; do sleep 0.05; done; \
	sleep $(DIST_KILL_AFTER); kill -9 $$W1 2>/dev/null || true; \
	wait $$W2; wait $$W3; wait $$W1 || true
	/tmp/mfc-campaign work -dir /tmp/camp-$(DIST_TAG)-shared -owner rescuer -quiet
	/tmp/mfc-campaign report -dir /tmp/camp-$(DIST_TAG)-shared > /tmp/camp-$(DIST_TAG)-shared.txt
	diff /tmp/camp-$(DIST_TAG)-base.txt /tmp/camp-$(DIST_TAG)-shared.txt
	@echo "multi-worker kill -9 + takeover report is byte-identical"

# Acceptance at scale: the same sequence over a 10k-site plan (20 shards
# at the default 512 ShardJobs), the worker killed two seconds in.
campaign-scale-smoke:
	$(MAKE) campaign-dist-smoke DIST_TAG=10k DIST_KILL_AFTER=2 \
		DIST_PLAN='-bands rank-100K-1M -stages base -sites 10000 -seed 3'

# Observability smoke: three distributed
# workers share a plan, one serves the live dashboard with a post-campaign
# hold; once /progress reports the whole store complete, the /metrics
# store counters must equal the totals in the merged report's header.
metrics-smoke:
	$(GO) build -o /tmp/mfc-campaign ./cmd/mfc-campaign
	rm -rf /tmp/camp-metrics /tmp/camp-metrics-w3.log
	/tmp/mfc-campaign plan -dir /tmp/camp-metrics -bands rank-1K-10K -stages base,query -sites 60 -seed 13 -shard-jobs 16
	@set -e; \
	/tmp/mfc-campaign work -dir /tmp/camp-metrics -owner w1 -quiet & W1=$$!; \
	/tmp/mfc-campaign work -dir /tmp/camp-metrics -owner w2 -quiet & W2=$$!; \
	/tmp/mfc-campaign work -dir /tmp/camp-metrics -owner w3 -quiet \
		-metrics 127.0.0.1:0 -metrics-hold 120s 2>/tmp/camp-metrics-w3.log & W3=$$!; \
	addr=""; \
	until [ -n "$$addr" ]; do \
		addr=$$(sed -n 's,^serving metrics/dashboard on http://\([^/]*\)/.*,\1,p' /tmp/camp-metrics-w3.log 2>/dev/null); \
		sleep 0.05; \
	done; \
	wait $$W1; wait $$W2; \
	for i in $$(seq 1 200); do \
		curl -s "http://$$addr/progress" | grep -q '"store_done": 120' && break; \
		sleep 0.1; \
	done; \
	curl -s "http://$$addr/progress" | grep -q '"store_done": 120' || \
		{ echo "store never reached 120 done jobs"; curl -s "http://$$addr/progress"; exit 1; }; \
	curl -s "http://$$addr/metrics" > /tmp/camp-metrics.prom; \
	curl -s -X POST "http://$$addr/quit" > /dev/null; wait $$W3; \
	/tmp/mfc-campaign report -dir /tmp/camp-metrics > /tmp/camp-metrics-report.txt; \
	rtotals=$$(sed -n 's/.*= \([0-9]*\) jobs, \([0-9]*\) done.*/\1 \2/p' /tmp/camp-metrics-report.txt | head -1); \
	rtotal=$$(echo $$rtotals | cut -d' ' -f1); rdone=$$(echo $$rtotals | cut -d' ' -f2); \
	mtotal=$$(awk '$$1=="mfc_campaign_store_jobs_total"{print int($$2)}' /tmp/camp-metrics.prom); \
	mdone=$$(awk '$$1=="mfc_campaign_store_jobs_done"{print int($$2)}' /tmp/camp-metrics.prom); \
	[ -n "$$mtotal" ] && [ "$$mtotal" = "$$rtotal" ] && [ "$$mdone" = "$$rdone" ] || \
		{ echo "metrics drift: /metrics store $$mdone/$$mtotal vs report $$rdone/$$rtotal"; exit 1; }; \
	echo "scraped /metrics store counters ($$mdone/$$mtotal) match the report header"

# Networked smoke: a control plane owns the plan and the store, three
# workers join it over plain HTTP (no shared filesystem — they know only
# the address), one is killed -9 mid-shard; after the grant TTL its shard
# is re-granted to a survivor under a bumped fence token (in memory: the
# served dir's only lease file stays store.lease), and the merged report
# must be byte-identical to the single-process run.
serve-smoke:
	$(GO) build -o /tmp/mfc-campaign ./cmd/mfc-campaign
	rm -rf /tmp/camp-serve-base /tmp/camp-serve /tmp/camp-serve.log
	/tmp/mfc-campaign plan -dir /tmp/camp-serve-base -bands rank-1K-10K -stages base,query -sites 100 -seed 17 -shard-jobs 16
	/tmp/mfc-campaign run -dir /tmp/camp-serve-base -quiet
	/tmp/mfc-campaign report -dir /tmp/camp-serve-base > /tmp/camp-serve-base.txt
	/tmp/mfc-campaign plan -dir /tmp/camp-serve -bands rank-1K-10K -stages base,query -sites 100 -seed 17 -shard-jobs 16
	@set -e; \
	/tmp/mfc-campaign serve -dir /tmp/camp-serve -listen 127.0.0.1:0 -ttl 2s 2>/tmp/camp-serve.log & SRV=$$!; \
	addr=""; \
	until [ -n "$$addr" ]; do \
		addr=$$(sed -n 's,^campaign control plane on http://\([^/]*\)/.*,\1,p' /tmp/camp-serve.log 2>/dev/null); \
		sleep 0.05; \
	done; \
	/tmp/mfc-campaign work -join $$addr -owner w1 -quiet & W1=$$!; \
	/tmp/mfc-campaign work -join $$addr -owner w2 -quiet & W2=$$!; \
	/tmp/mfc-campaign work -join $$addr -owner w3 -quiet & W3=$$!; \
	until [ -n "$$(ls -A /tmp/camp-serve/shards 2>/dev/null)" ]; do sleep 0.05; done; \
	kill -9 $$W1 2>/dev/null || true; \
	wait $$W2; wait $$W3; wait $$W1 || true; \
	[ "$$(ls /tmp/camp-serve/leases)" = "store.lease" ] || \
		{ echo "served dir holds lease files besides store.lease:"; ls /tmp/camp-serve/leases; exit 1; }; \
	curl -s "http://$$addr/api/status" | grep -q '"complete":true' || \
		{ echo "control plane does not report completion"; curl -s "http://$$addr/api/status"; exit 1; }; \
	curl -s -X POST "http://$$addr/quit" > /dev/null; wait $$SRV
	/tmp/mfc-campaign report -dir /tmp/camp-serve > /tmp/camp-serve.txt
	diff /tmp/camp-serve-base.txt /tmp/camp-serve.txt
	@echo "networked kill -9 + re-grant report is byte-identical"

# Fleet-trace smoke: a control plane with a
# tight TTL and straggler threshold, three joined workers shipping
# wall-clock spans over HTTP, one killed -9 mid-shard. The straggler
# gauge must fire while the orphaned shard outlives k x the median
# completed-shard duration, the campaign must still complete, and the
# merged Chrome trace must carry all three workers' process tracks.
trace-smoke:
	$(GO) build -o /tmp/mfc-campaign ./cmd/mfc-campaign
	rm -rf /tmp/camp-trace /tmp/camp-trace.log /tmp/camp-trace.trace.json
	/tmp/mfc-campaign plan -dir /tmp/camp-trace -bands rank-1K-10K -stages base,query -sites 100 -seed 19 -shard-jobs 8
	@set -e; \
	/tmp/mfc-campaign serve -dir /tmp/camp-trace -listen 127.0.0.1:0 -ttl 2s -straggler 2 2>/tmp/camp-trace.log & SRV=$$!; \
	addr=""; \
	until [ -n "$$addr" ]; do \
		addr=$$(sed -n 's,^campaign control plane on http://\([^/]*\)/.*,\1,p' /tmp/camp-trace.log 2>/dev/null); \
		sleep 0.05; \
	done; \
	/tmp/mfc-campaign work -join $$addr -owner w1 -quiet & W1=$$!; \
	/tmp/mfc-campaign work -join $$addr -owner w2 -quiet & W2=$$!; \
	/tmp/mfc-campaign work -join $$addr -owner w3 -quiet & W3=$$!; \
	until [ -s /tmp/camp-trace/spans/spans-w1.jsonl ]; do sleep 0.02; done; \
	kill -9 $$W1 2>/dev/null || true; \
	straggler=0; \
	for i in $$(seq 1 600); do \
		n=$$(curl -s "http://$$addr/metrics" | awk '$$1=="mfc_campaign_straggler_shards"{print int($$2)}'); \
		if [ -n "$$n" ] && [ "$$n" -ge 1 ]; then straggler=$$n; break; fi; \
		sleep 0.05; \
	done; \
	[ "$$straggler" -ge 1 ] || \
		{ echo "straggler gauge never fired after kill -9"; curl -s "http://$$addr/fleet.json"; exit 1; }; \
	wait $$W2; wait $$W3; wait $$W1 || true; \
	curl -s "http://$$addr/api/status" | grep -q '"complete":true' || \
		{ echo "control plane does not report completion"; curl -s "http://$$addr/api/status"; exit 1; }; \
	curl -s -X POST "http://$$addr/quit" > /dev/null; wait $$SRV
	/tmp/mfc-campaign trace -dir /tmp/camp-trace -out /tmp/camp-trace.trace.json > /tmp/camp-trace.summary
	grep -q "from 3 workers" /tmp/camp-trace.summary
	grep -q '"traceEvents"' /tmp/camp-trace.trace.json
	@test "$$(grep -c '"process_name"' /tmp/camp-trace.trace.json)" = "3" || \
		{ echo "merged trace does not carry exactly 3 worker tracks"; exit 1; }
	@echo "kill -9 fleet trace merges all three workers and the straggler gauge fired"

# Analytics smoke: the deep analyze read over the serve-smoke stores — the
# 3-worker kill -9 + re-grant store must produce a byte-identical analytics
# document to the single-process one. (`make serve-smoke analyze-smoke` in
# one invocation runs the prerequisite once.)
analyze-smoke: serve-smoke
	/tmp/mfc-campaign analyze -dir /tmp/camp-serve-base -json > /tmp/camp-serve-base.analyze.json
	/tmp/mfc-campaign analyze -dir /tmp/camp-serve -json > /tmp/camp-serve.analyze.json
	diff /tmp/camp-serve-base.analyze.json /tmp/camp-serve.analyze.json
	@echo "kill -9 store analytics document is byte-identical"

ci: build vet fmt-check apicheck test bench-smoke race campaign-dist-smoke metrics-smoke serve-smoke analyze-smoke trace-smoke
