GO ?= go
SERVE_ADDR ?= :8077
SMOKE_PORT ?= 18077
BENCH_CURRENT ?= /tmp/mdtask-bench-current.json
FUZZTIME ?= 10s

.PHONY: build test examples bench bench-json bench-gate docslint fmt vet serve smoke-serve smoke-fleet smoke-stream smoke-cache smoke-obs smoke-crash fuzz race loadgate

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Run every example end to end; a non-zero exit from any of them fails
# the target (psaensemble exits non-zero unless every engine and both
# schedules produce bit-identical matrices). Gating in CI.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Run the analysis job server (cmd/mdserver) in the foreground.
serve:
	$(GO) run ./cmd/mdserver -addr $(SERVE_ADDR)

# CI smoke: build mdserver, start it, hit /healthz, submit a tiny synth
# PSA job, poll it to completion and assert a 200 result. The trap
# covers INT/TERM/HUP as well as EXIT and reaps the server, so an
# assertion failure (or a cancelled CI run) never leaks an mdserver
# onto the runner's port; the binary lives in a per-run scratch dir so
# parallel invocations cannot trample each other.
smoke-serve:
	@set -eu; \
	bin=$$(mktemp -d); pid=""; \
	trap 'status=$$?; [ -n "$$pid" ] && kill $$pid 2>/dev/null || true; \
	      wait 2>/dev/null || true; rm -rf "$$bin"; exit $$status' EXIT INT TERM HUP; \
	$(GO) build -o $$bin/mdserver ./cmd/mdserver; \
	$$bin/mdserver -addr 127.0.0.1:$(SMOKE_PORT) & pid=$$!; \
	for i in $$(seq 1 50); do \
	  curl -fsS http://127.0.0.1:$(SMOKE_PORT)/healthz >/dev/null 2>&1 && break; \
	  sleep 0.1; \
	done; \
	curl -fsS http://127.0.0.1:$(SMOKE_PORT)/healthz; echo; \
	id=$$(curl -fsS -X POST http://127.0.0.1:$(SMOKE_PORT)/v1/jobs \
	  -d '{"analysis":"psa","engine":"dask","synth":{"count":3,"atoms":8,"frames":4}}' | jq -r .id); \
	echo "submitted $$id"; \
	state=queued; \
	for i in $$(seq 1 100); do \
	  state=$$(curl -fsS http://127.0.0.1:$(SMOKE_PORT)/v1/jobs/$$id | jq -r .state); \
	  [ "$$state" = "done" ] && break; \
	  [ "$$state" = "failed" ] && { echo "job failed" >&2; exit 1; }; \
	  sleep 0.1; \
	done; \
	[ "$$state" = "done" ] || { echo "job stuck in $$state" >&2; exit 1; }; \
	curl -fsS -o /dev/null -w '%{http_code}\n' http://127.0.0.1:$(SMOKE_PORT)/v1/jobs/$$id/result | grep -q 200; \
	echo "smoke-serve OK"

# CI smoke for the fleet engine: mdserver + 2 external mdworkers, one
# SIGKILLed mid-job; the job must finish with a matrix identical to
# the serial engine's (see scripts/smoke_fleet.sh).
smoke-fleet:
	sh scripts/smoke_fleet.sh

# CI smoke for the block-level result store: submit a synth PSA job,
# resubmit it grown by one trajectory, and assert via the HTTP API that
# only the new row/column blocks ran — 10 block hits, 5 misses, and
# exactly the new trajectory's frame pairs evaluated (see
# scripts/smoke_cache.sh).
smoke-cache:
	sh scripts/smoke_cache.sh

# CI smoke for the observability layer: mdserver + 2 external
# mdworkers with /metrics listeners; both expositions must parse, the
# POST /v1/jobs counters must equal the submissions made, and the
# fleet job's Chrome trace must span both processes with every
# worker-side kernel span parented under a coordinator-side lease
# span (see scripts/smoke_obs.sh).
smoke-obs:
	sh scripts/smoke_obs.sh

# CI gate for the durable job store: mdserver with a -data-dir journal
# is SIGKILLed mid-fleet-job and restarted against the same directory;
# zero jobs may be lost, the recovered job must complete byte-identical
# to the serial reference, and /metrics must expose the recovery
# evidence (see scripts/smoke_crash.sh).
smoke-crash:
	sh scripts/smoke_crash.sh

# CI smoke for out-of-core streaming: an ensemble whose loaded payload
# exceeds the streamed child's RSS budget must run to completion with
# `psa -max-frames` inside that budget (peak RSS sampled from /proc),
# byte-identical to the unconstrained run (see scripts/smoke_stream.sh).
smoke-stream:
	sh scripts/smoke_stream.sh

# Run the trajectory-decoder fuzz targets for FUZZTIME each (native
# `go test -fuzz`; seed corpora live in internal/traj/testdata/fuzz).
fuzz:
	$(GO) test -fuzz FuzzReadXYZT -fuzztime $(FUZZTIME) -run '^$$' ./internal/traj/
	$(GO) test -fuzz FuzzDecodeMDT -fuzztime $(FUZZTIME) -run '^$$' ./internal/traj/
	$(GO) test -fuzz FuzzWindowRoundTrip -fuzztime $(FUZZTIME) -run '^$$' ./internal/traj/

# Dedicated race gate over the concurrency-heavy layers (the serving
# scheduler with its journal and crash-point tests, the WAL, the fleet
# coordinator/worker protocol, and the streamed PSA cancel paths),
# independent of the main test matrix.
race:
	$(GO) test -race -count=1 ./internal/jobs/... ./internal/fleet/... ./internal/psa/... ./internal/wal/... ./internal/faultinject/...

bench:
	$(GO) test -bench 'PSA|Hausdorff' -run '^$$' ./internal/bench/

# Record the PSA Hausdorff kernel perf trajectory (ns/op + frame-pair
# counters + pruned fraction per kernel method) to BENCH_psa.json.
bench-json:
	MDTASK_BENCH_JSON=$(CURDIR)/BENCH_psa.json $(GO) test -count=1 ./internal/bench/ -run TestWriteBenchPSAJSON -v
	@cat $(CURDIR)/BENCH_psa.json

# Kernel-efficiency regression gate: record the current counters to a
# scratch path and compare against the committed BENCH_psa.json.
# Counters are deterministic (fixed synth seeds), so the tolerance only
# absorbs future intentional jitter; wall-clock never gates.
bench-gate:
	MDTASK_BENCH_JSON=$(BENCH_CURRENT) $(GO) test -count=1 ./internal/bench/ -run TestWriteBenchPSAJSON
	$(GO) run ./cmd/benchgate -baseline $(CURDIR)/BENCH_psa.json -current $(BENCH_CURRENT)

# CI gate for the production load harness: mdserver (small queue,
# journal) + 2 healthy mdworkers run the full non-chaos scenario suite
# under cmd/mdload with every deterministic invariant gating (zero
# lost jobs, exact shed/submit accounting, Retry-After on 429s, 413 on
# oversized bodies, wal_records_skipped == 0, no goroutine leaks);
# then a third, MDTASK_FAULTS-armed worker takes the chaos scenario,
# which must find evidence of the injected faults. Latency lands in
# BENCH_load.json / load_latency.csv but never gates (see
# scripts/loadgate.sh).
loadgate:
	sh scripts/loadgate.sh

# Documentation lint: every internal/cmd package must carry a
# substantive package doc comment stating its role and pipeline place
# (see scripts/docslint.sh). Gating in CI.
docslint:
	sh scripts/docslint.sh

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...
