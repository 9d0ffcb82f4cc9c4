# Build and test tiers. `make check` is the full pre-merge gate.

GO ?= go

.PHONY: all build test race fmt vet lint faults stress fuzz soak chaos nrt check bench ablate gobench serve-smoke serve-bench

all: check

# Tier 1: everything compiles and the unit suite passes.
build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Concurrency tier: the unit suite under the race detector (covers the
# engine smoke tests and the Mneme pin/evict tests).
race:
	$(GO) test -race ./...

# Static analysis gate.
vet:
	$(GO) vet ./...

# Deeper static analysis: staticcheck when the host has it, with a
# visible skip otherwise (the CI image is stdlib-only, so the gate
# must not require fetching a binary).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; go vet only (install honnef.co/go/tools/cmd/staticcheck for the full gate)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping vulnerability scan (install golang.org/x/vuln/cmd/govulncheck for the full gate)"; \
	fi

# Robustness tier: the fault-injection, crash-recovery, checksum, and
# degraded-mode suites across the storage stack, run with fresh counts.
faults:
	$(GO) test -count=1 -run 'Fault|Crash|Corrupt|Torn|Rot|Fsck|Degraded|Rollback|CloseHygiene|FlipByte' \
		./internal/vfs/ ./internal/mneme/ ./internal/btree/ ./internal/core/

# Stress tier: the batch driver, admission-gate, deadline, and request
# lifecycle contract tests repeated across GOMAXPROCS settings, so a
# test that passes only on lucky scheduling fails here before merge.
stress:
	$(GO) test -count=10 -cpu 1,2,4,8 -run 'Batch|Shed|Gate|Deadline|Lifecycle' ./internal/core/

# Formatting gate: fails if any file needs gofmt.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Fuzz smoke: a short randomized pass over the record codec and the
# B-tree op-sequence fuzzer. Longer sessions: go test -fuzz <name>
# -fuzztime 5m in the package directory.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPostingsRoundTrip -fuzztime 5s ./internal/postings/
	$(GO) test -run '^$$' -fuzz FuzzBitmapRoundTrip -fuzztime 5s ./internal/postings/
	$(GO) test -run '^$$' -fuzz FuzzBTreeInsertLookup -fuzztime 5s ./internal/btree/
	$(GO) test -run '^$$' -fuzz FuzzWALRoundTrip -fuzztime 5s ./internal/mneme/
	$(GO) test -run '^$$' -fuzz FuzzMemtableIterator -fuzztime 5s ./internal/core/

# Chaos soak: randomized-but-seeded fault schedules (probabilistic,
# periodic, and transient injection) over the full query matrix on both
# backends, with retry, breaker, admission gate, and per-query deadlines
# all engaged. Asserts the resilience invariant: every query either
# matches the clean-run ranking exactly or carries a typed shed /
# deadline / degraded label — never a silent wrong result. SOAK_ROUNDS
# scales the schedule (default 4 in-test; ~5s at 1000).
# The shard-kill storm rides along: a seeded schedule crash-freezes a
# random shard's store each round and asserts every scatter-gather
# answer is either the exact full ranking or a typed partial whose
# Coverage block accounts for every shard — never a silent wrong result.
soak:
	SOAK_ROUNDS=1000 $(GO) test -count=1 -run TestChaosSoak ./internal/core/
	SOAK_ROUNDS=40 $(GO) test -count=1 -run 'TestShardKillStorm|TestShardCrashFreeze' ./internal/shard/
	SOAK_ROUNDS=40 $(GO) test -count=1 -run TestReplicaKillStorm ./internal/shard/
	SOAK_ROUNDS=8 $(GO) test -count=1 -race -run TestNRTStormIngestQueryFaults ./internal/core/

# Replica chaos, quick tier: a seeded replica-kill + bit-rot storm over
# a 4-shard x 2-replica set under the race detector, plus the online-
# repair throughput proof (queries must keep flowing while a quarantined
# replica is rebuilt from its peer). Every query during the storm must
# return the full, exact ranking — zero failed or partial answers while
# one replica of any shard survives. The longer unraced storm lives in
# `make soak`; this tier is short enough for `make check`.
chaos:
	SOAK_ROUNDS=10 $(GO) test -count=1 -race \
		-run 'TestReplicaKillStorm|TestReplicaRepairOnlineThroughput|TestReplicaFailoverGoroutineHygiene' \
		./internal/shard/

# Near-real-time tier: the write-path proof suite. Differential oracle
# (quiesced rankings byte-identical to the batch builder, mid-ingest
# scores within 1e-9, both backends, all three evaluation modes),
# crash-point sweep over every WAL/flush/compact write+sync ordinal
# (old-or-new state, zero acked loss), memtable/WAL unit + fuzz
# regression corpora, close-mid-flush goroutine-leak check, the
# /v1/ingest endpoint, and both CLI lifecycles (inqueryd -nrt,
# inquery-index -nrt build + WAL replay).
nrt:
	$(GO) test -count=1 -run 'TestNRT|TestMemtable|FuzzMemtableIterator' ./internal/core/
	$(GO) test -count=1 -run 'TestWAL|FuzzWALRoundTrip' ./internal/mneme/
	$(GO) test -count=1 -run TestIngestEndpoint ./internal/serve/
	$(GO) test -count=1 -run TestServeSmokeNRT ./cmd/inqueryd/
	$(GO) test -count=1 -run TestNRTBuildAndReplay ./cmd/inquery-index/

# Serving smoke: build the real inqueryd + loadgen binaries, boot the
# server on loopback over a self-built synthetic index, run a short
# closed-loop burst, assert /metrics and /snapshot respond, then SIGTERM
# and require a clean drain (exit 0) — a leaked worker or stuck
# shutdown hangs and fails here.
# Covers the single-engine boot, the sharded scatter-gather boot
# (-shards 2 -quorum 'quorum(1)'), the replicated boot (-shards 2
# -replicas 2 with per-replica health in /snapshot), and the
# near-real-time boot (-nrt with a live POST /v1/ingest made searchable
# on the next request).
serve-smoke:
	$(GO) test -count=1 -run 'TestServeSmoke|TestServeSmokeSharded|TestServeSmokeReplicated|TestServeSmokeNRT' ./cmd/inqueryd/

check: fmt lint test faults stress race fuzz soak chaos nrt serve-smoke

# Query-latency regression gate: runs the standard query mixes over both
# backends (cmd/repro -bench) and diffs the per-stage p95 quantiles
# against the committed baseline, failing on >20% regression. The
# quantiles come from the deterministic cost model, so this catches
# algorithmic regressions (more I/O, more faults, more postings), not
# host noise. Regenerate the baseline after intentional changes with:
#   $(GO) run ./cmd/repro -scale 0.25 -bench -benchout testdata/bench_baseline.json
bench:
	$(GO) run ./cmd/repro -scale 0.25 -bench -benchout BENCH_query.json \
		-baseline testdata/bench_baseline.json

# Codec x cache ablation matrix: the same collection built under each
# posting-codec policy (v1 streams, v2 blocks, adaptive with the v3
# bitmap upgrade), each queried with the hot-path caches off and on.
# Writes the ABLATION_codec.json artifact EXPERIMENTS.md references and
# prints the table; deterministic (simulated cost model), so the JSON
# is byte-stable across runs at a fixed scale.
ablate:
	$(GO) run ./cmd/repro -scale 0.25 -ablate-codec -ablateout ABLATION_codec.json

# Serving-throughput gate: boot inqueryd over the synthetic CACM index
# three times — unsharded (serve-x1) and document-partitioned into 2 and
# 4 shards behind the scatter-gather coordinator — drive a closed-loop
# burst with loadgen after each boot, accumulate the rows into one
# report (-append), and diff achieved QPS, shed rate, and latency
# quantiles against the committed baseline on the x4 run.
# Two replicated boots follow (-shards 4 -replicas 2): a healthy run
# (serve-x4r2) and a run where the server crash-freezes one replica of
# every shard 2s in (-chaos-kill-replica, label serve-x4r2-kill). The
# killed run is gated by -kill-gate: zero transport errors, zero HTTP
# 5xx, and QPS at least 90% of the healthy row — the failover router
# must absorb the kill without surfacing it to clients.
# These are wall-clock numbers (unlike the simulated query bench), so
# the tolerance is deliberately loose — it catches collapses, not
# percent-level drift — and the target is NOT part of `make check`.
# Regenerate the baseline on a quiet host with:
#   make serve-bench SERVE_BENCH_OUT=testdata/serve_baseline.json SERVE_BENCH_BASE=
SERVE_BENCH_OUT ?= BENCH_serve.json
SERVE_BENCH_BASE ?= testdata/serve_baseline.json
serve-bench:
	$(GO) build -o /tmp/repro-inqueryd ./cmd/inqueryd
	$(GO) build -o /tmp/repro-loadgen ./cmd/loadgen
	@rm -f $(SERVE_BENCH_OUT)
	for N in 1 2 4; do \
		/tmp/repro-inqueryd -synthetic CACM -scale 0.05 -shards $$N \
			-addr 127.0.0.1:7933 & \
		SRV=$$!; \
		GATE=""; \
		if [ "$$N" = 4 ] && [ -n "$(SERVE_BENCH_BASE)" ]; then \
			GATE="-baseline $(SERVE_BENCH_BASE) -tol 1.0"; fi; \
		/tmp/repro-loadgen -target http://127.0.0.1:7933 -collection CACM -scale 0.05 \
			-duration 5s -c 8 -label serve-x$$N -append -out $(SERVE_BENCH_OUT) $$GATE; \
		RC=$$?; kill -TERM $$SRV; wait $$SRV || true; \
		[ $$RC -eq 0 ] || exit $$RC; \
	done
	for KILL in "" "-chaos-kill-replica 2s"; do \
		LABEL=serve-x4r2; GATE=""; \
		if [ -n "$$KILL" ]; then \
			LABEL=serve-x4r2-kill; GATE="-kill-gate serve-x4r2 -kill-ratio 0.9"; fi; \
		/tmp/repro-inqueryd -synthetic CACM -scale 0.05 -shards 4 -replicas 2 $$KILL \
			-addr 127.0.0.1:7933 & \
		SRV=$$!; \
		/tmp/repro-loadgen -target http://127.0.0.1:7933 -collection CACM -scale 0.05 \
			-duration 5s -c 8 -label $$LABEL -append -out $(SERVE_BENCH_OUT) $$GATE; \
		RC=$$?; kill -TERM $$SRV; wait $$SRV || true; \
		[ $$RC -eq 0 ] || exit $$RC; \
	done

# Quick pass over the paper-reproduction go benchmarks.
gobench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
