GO ?= go

.PHONY: build test race serial-restore bench microbench vet cross lint crash restore-bench observatory-smoke bench-smoke bench-layout fuzz-smoke loc check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The restore path runs prefetch workers concurrently with the
# assembler; the race tier is not optional.
race:
	$(GO) test -race ./...

# A restore assembles serially only when GOMAXPROCS is 1; on more CPUs it
# runs the parallel assembler. This pass keeps the serial path, and the
# restore tests that compare against it, covered whatever the runner's
# core count.
serial-restore:
	GOMAXPROCS=1 $(GO) test ./internal/restorecache ./internal/backup .

# Regenerate the three committed benchmark snapshots with the flags they
# are captured with, into BENCH_OUT. Every value in them is exact, so a
# fresh run matches the committed file unless code changed; compare with
#   $(GO) run ./cmd/benchdiff -fail-above 15 BENCH_restore.json <dir>/BENCH_restore.json
# which is how CI gates them (make bench BENCH_OUT=artifacts).
BENCH_OUT ?= .
bench:
	$(GO) run ./cmd/bench -exp backup -workloads kernel,gcc -scale 8 -versions 8 -json $(BENCH_OUT)
	$(GO) run ./cmd/bench -exp chunkers -scale 8 -json $(BENCH_OUT)
	$(GO) run ./cmd/bench -exp restore -workloads kernel -scale 4 -versions 8 -json $(BENCH_OUT)

# Go micro-benchmarks: raw chunker scan loops, the pooled chunk path,
# container/restore internals. Use -benchmem to see the allocation
# deltas the pooled path exists for.
microbench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

vet:
	$(GO) vet ./...

# The SHA-NI fingerprint kernel is amd64 assembly behind build tags; every
# other architecture takes fp's crypto/sha1 fallback. Vetting for arm64
# (asmdecl included) and building for 386 keeps the fallback and the tags
# compiling whatever the runner's architecture.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

# hidelint is the project-specific static-analysis gate: discarded
# errors, dead context plumbing, panics in library code, store
# snapshot-ownership, and pooled-buffer ownership. The run is interprocedural (whole-module call graph +
# per-function summaries), and a stale //hidelint:ignore directive is a
# hard failure, so suppressions cannot outlive the code they excused.
# See DESIGN.md "Static-analysis gate".
lint:
	$(GO) run ./cmd/hidelint -unused-suppressions

# The full crash matrix: kill a multi-version backup/delete run at
# EVERY mutating op (clean fail, torn write, ENOSPC), reopen, and prove
# committed versions restore byte-identically — and, in the
# retry-after-failure sweep, that the engine that saw the failure refuses
# to go on before it is reopened. The plain test tier runs a
# deterministic sample of the same matrix; this tier removes the
# sampling. Bounded: well under two minutes. See DESIGN.md "Durability
# & recovery".
crash:
	HIDESTORE_CRASH_FULL=1 $(GO) test -run 'TestCrashMatrix|TestRetryAfterFailure' -count=1 ./internal/core/ ./internal/dedup/

# The restore sweep at tiny scale: baseline and HiDeStore × prefetch
# depth × fetch latency behind the deterministic remote simulator, plus
# the exact restore counts (allocations per chunk, recipe reads of a cold
# oldest restore). The sweep hard-fails if any cell's container-read
# count deviates from its scheme's serial cell, or the layout analyzer's
# from HiDeStore's — the accounting identity, enforced on every make
# check.
restore-bench:
	$(GO) run ./cmd/bench -exp restore -workloads kernel -scale 2 -versions 6

# The locality-observatory smoke: an instrumented three-backup chain and
# a restore of its oldest version in a scratch dir, then every offline
# analysis tool over its outputs — tracereport must reconstruct a balanced
# span tree from the JSONL trace, checkmetrics must accept the exposition
# dump, and analyze must produce a layout report for the store. v2
# appends to v1 and v3 drops v1's second half, so chunks v1's recipe
# points forward to go cold: the restore has
# forward pointers to follow, and its recipe.flatten record — the
# "resolve:" line — must reach the report. A second store takes v1 and
# v2 through the CLI's simulated remote (-backend remote -backend-latency
# 1ms, the two backend flags there are) and must restore v1 byte for
# byte; a third takes them with -compress, must restore v1 byte for byte
# and fsck clean. This is the one copy of the
# script: CI runs it through `make check OBS_ARTIFACTS=artifacts`, which
# keeps the trace, the metrics dump and the reports for upload; by default
# they sit in the scratch dir and go with it.
OBS_ARTIFACTS ?= .obs-smoke/artifacts
observatory-smoke:
	rm -rf .obs-smoke && mkdir -p .obs-smoke $(OBS_ARTIFACTS)
	$(GO) build -o .obs-smoke/hs ./cmd/hidestore
	head -c 1048576 /dev/urandom > .obs-smoke/v1.bin
	cat .obs-smoke/v1.bin > .obs-smoke/v2.bin && head -c 65536 /dev/urandom >> .obs-smoke/v2.bin
	head -c 524288 .obs-smoke/v1.bin > .obs-smoke/v3.bin && head -c 65536 /dev/urandom >> .obs-smoke/v3.bin
	rm -f $(OBS_ARTIFACTS)/trace.jsonl
	.obs-smoke/hs -dir .obs-smoke/store -trace $(OBS_ARTIFACTS)/trace.jsonl backup .obs-smoke/v1.bin
	.obs-smoke/hs -dir .obs-smoke/store -trace $(OBS_ARTIFACTS)/trace.jsonl backup .obs-smoke/v2.bin
	.obs-smoke/hs -dir .obs-smoke/store -trace $(OBS_ARTIFACTS)/trace.jsonl backup .obs-smoke/v3.bin
	.obs-smoke/hs -dir .obs-smoke/store -trace $(OBS_ARTIFACTS)/trace.jsonl \
		-metrics-out $(OBS_ARTIFACTS)/metrics.prom -o .obs-smoke/restored.bin restore 1
	cmp .obs-smoke/v1.bin .obs-smoke/restored.bin
	$(GO) run ./cmd/tracereport $(OBS_ARTIFACTS)/trace.jsonl > $(OBS_ARTIFACTS)/tracereport.txt
	cat $(OBS_ARTIFACTS)/tracereport.txt
	grep -q 'resolve: 1 recipes' $(OBS_ARTIFACTS)/tracereport.txt
	.obs-smoke/hs checkmetrics $(OBS_ARTIFACTS)/metrics.prom
	.obs-smoke/hs -dir .obs-smoke/store -json analyze > $(OBS_ARTIFACTS)/layout_smoke.json
	cat $(OBS_ARTIFACTS)/layout_smoke.json
	.obs-smoke/hs -dir .obs-smoke/remote -backend remote -backend-latency 1ms backup .obs-smoke/v1.bin
	.obs-smoke/hs -dir .obs-smoke/remote -backend remote -backend-latency 1ms backup .obs-smoke/v2.bin
	.obs-smoke/hs -dir .obs-smoke/remote -backend remote -backend-latency 1ms -o .obs-smoke/remote-v1.bin restore 1
	cmp .obs-smoke/v1.bin .obs-smoke/remote-v1.bin
	.obs-smoke/hs -dir .obs-smoke/compressed -compress backup .obs-smoke/v1.bin
	.obs-smoke/hs -dir .obs-smoke/compressed -compress backup .obs-smoke/v2.bin
	.obs-smoke/hs -dir .obs-smoke/compressed -compress -o .obs-smoke/compressed-v1.bin restore 1
	cmp .obs-smoke/v1.bin .obs-smoke/compressed-v1.bin
	.obs-smoke/hs -dir .obs-smoke/compressed -compress fsck
	rm -rf .obs-smoke

# The benchmark (BENCHMARK.json, benchmark/) is a nested module that
# `go test ./...` at the root skips, so an engine API change that breaks
# its build is invisible to the tiers above. Its own tests drive every
# workload and layer once at tiny scale, ~10 s.
bench-smoke:
	cd benchmark && $(GO) test ./...

# The code layout of the benchmark's workload generator. setup_s times the
# generator, and code added anywhere else in the binary has shifted its
# functions' alignment and moved setup_s by up to 25 % with no set-up code
# changed. This builds benchmark/out/hsbench as benchmark/run.sh does and
# prints each internal/workload and math/rand function's address mod 64
# and name; diff the output of two commits to see whether the generator
# moved. It writes only under benchmark/out/.
BENCH_GOENV = GOCACHE=$(CURDIR)/benchmark/out/gocache GOPATH=$(CURDIR)/benchmark/out/gopath GOTOOLCHAIN=local
bench-layout:
	@mkdir -p benchmark/out
	@cd benchmark && $(BENCH_GOENV) $(GO) build -buildvcs=false -o out/hsbench .
	@$(BENCH_GOENV) $(GO) tool nm -sort address benchmark/out/hsbench \
		| awk '$$2 ~ /^[Tt]$$/ && $$3 ~ /^(hidestore\/internal\/workload|math\/rand)\./ { \
			h = tolower(substr($$1, length($$1) - 1)); \
			n = (index("0123456789abcdef", substr(h, 1, 1)) - 1) * 16 + index("0123456789abcdef", substr(h, 2, 1)) - 1; \
			printf "%2d %s\n", n % 64, $$3 }'

# Ten seconds of coverage-guided fuzzing of the Rabin and TTTD scans
# against their reference loops, one window of at most 64 KB per input,
# so tens of thousands of inputs a second, five of Decider.Confirms (a
# confirmed cut on a chunk that keeps its bytes is Cut's cut, and every
# main-divisor cut is confirmed), then five of the fingerprint (SHA-NI
# where the CPU has it) against crypto/sha1. Minimization is
# capped at 100 runs per input: at the 60 s default it would spend the
# whole budget shrinking the first interesting input. A failure lands in
# the package's testdata/fuzz/ as a replayable seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScanMatchesReference -fuzztime 10s -fuzzminimizetime 100x ./internal/chunker
	$(GO) test -run '^$$' -fuzz FuzzConfirmsImpliesCut -fuzztime 5s -fuzzminimizetime 100x ./internal/chunker
	$(GO) test -run '^$$' -fuzz FuzzOfMatchesSHA1 -fuzztime 5s -fuzzminimizetime 100x ./internal/fp

# Non-test, non-testdata Go lines per package and in total: the figures
# ROADMAP and the "less code" PRs quote, from one command instead of a
# recount by hand. CI keeps the table next to the BENCH snapshots.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path './.*' ! -path './benchmark/out/*' -print0 \
		| xargs -0 wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
		| sort -k2

check: build test race serial-restore vet cross lint crash restore-bench observatory-smoke bench-smoke fuzz-smoke
