GO ?= go

.PHONY: all build vet fmt test race short soak cover bench bench-test fuzz smoke ci loc reach clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails, listing them, if any file is not gofmt-formatted.
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# Full test suite (includes the multi-seed chaos soak).
test:
	$(GO) test ./...

# Race-enabled run of everything; the flow/variable concurrency tests and
# the chaos matrix are only meaningful with the race detector on.
race:
	$(GO) test -race ./...

# Quick signal: skips the chaos soak (guarded by testing.Short).
short:
	$(GO) test -short ./...

# Just the chaos soak, verbosely.
soak:
	$(GO) test -race -run TestChaosSoak -v .

# Coverage: run the suite with per-package profiles and print the
# summary (total and per-function for the journal/recovery layer).
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@echo "full per-function report: $(GO) tool cover -func=coverage.out"
	@echo "html report:              $(GO) tool cover -html=coverage.out"

# The repo's one benchmark (bench/README.md): six closed-loop workloads,
# drift-compensated end-to-end metrics and a per-layer budget, built
# into .bench_build/. Pass arguments through ARGS, e.g.
#   make bench ARGS="--workload bis-fig4 --seconds 2"
bench:
	bash bench/run.sh $(ARGS)

# The benchmark's own tests. bench/ is a module of its own, so the root
# `go test ./...` does not reach it.
bench-test:
	cd bench && $(GO) test ./...

# Fuzz smoke: bounded runs of the WAL-scanner fuzzer (recovery must
# survive arbitrary bytes), the record codec behind it (any payload in a
# valid frame decodes or reads as torn, within its size, and what decodes
# survives the live encoder), the script splitter behind ExecScript
# (statement texts re-parse alone and cover the input), normalizeStmt
# (idempotent on its own rendering), the parser's slot numbering (named
# placeholders after every `?`, the same names raw and normalized), the
# index key encoder (same key
# iff equal under compareValues), the Value layout (the 32-byte value
# agrees with the 48-byte one on comparisons, coercions, keys and
# encodings), the LIKE matcher (equal to a regexp
# oracle), the GROUP BY group table (the same bins, in first-seen order,
# as a map keyed on appendValueKey), session reuse (a seeded statement
# mix — writes, rollbacks, transactions, and reads through a hash join
# and an index probe with ORDER BY … LIMIT, whose plans keep their build
# and sort buffers — on one long-lived session returns what it returns
# on a fresh session per statement, and no result changes after it is
# returned),
# xdm's block clone (equal to its source, and a write to it never
# reaches the source) and the WF persistence service's streamed XML (the
# state snapshot and DataSet memo equal, byte for byte, what the xdm tree
# they no longer build prints). CI-friendly; raise -fuzztime manually for
# longer campaigns.
fuzz:
	$(GO) test -fuzz='^FuzzScan$$' -fuzztime=15s ./internal/journal/
	$(GO) test -fuzz='^FuzzRecordCodec$$' -fuzztime=15s ./internal/journal/
	$(GO) test -fuzz='^FuzzParseScript$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzNormalizeStmt$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzParamNames$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzIndexKey$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzValueLayout$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzLike$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzGroupKey$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzSessionReuse$$' -fuzztime=15s ./internal/sqldb/
	$(GO) test -fuzz='^FuzzClone$$' -fuzztime=15s ./internal/xdm/
	$(GO) test -fuzz='^FuzzPersistenceStream$$' -fuzztime=15s ./internal/mswf/

# The CLIs end to end, writing into ARTIFACTS (a fresh temporary
# directory when unset), e.g.
#   make smoke ARTIFACTS=artifacts
# cmd/wfrun and cmd/bpelrun run on their testdata and write their span
# traces (JSONL) and metrics snapshots; each trace must hold exactly one
# instance span, of the expected stack, with a non-zero instance id that
# every activity span carries; cmd/sqlsh runs a script whose
# cached SELECT and EXPLAIN must move onto an index created between two
# executions; cmd/tables -verify and cmd/patterncheck execute every
# conformance case.
smoke:
	@set -e; dir="$(ARTIFACTS)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	$(GO) run ./cmd/wfrun -xoml cmd/wfrun/testdata/sample.xoml \
		-seed cmd/wfrun/testdata/seed.sql -var minTotal=5 \
		-trace "$$dir/wfrun-trace.jsonl" -metrics "$$dir/wfrun-metrics.json"; \
	$(GO) run ./cmd/bpelrun -bpel cmd/bpelrun/testdata/figure4.bpel \
		-seed cmd/bpelrun/testdata/seed.sql \
		-trace "$$dir/bpelrun-trace.jsonl" -metrics "$$dir/bpelrun-metrics.json"; \
	for t in wfrun:WF bpelrun:BIS; do \
		f="$$dir/$${t%%:*}-trace.jsonl"; \
		[ "$$(grep -c '"kind":"instance"' "$$f")" = 1 ] || \
			{ echo "smoke: $$f: want exactly one instance span"; exit 1; }; \
		id=$$(grep '"kind":"instance"' "$$f" | grep -F "\"stack\":\"$${t#*:}\"" | grep -o '"instance":[1-9][0-9]*') || \
			{ echo "smoke: $$f: the instance span lacks stack $${t#*:} or an instance id"; exit 1; }; \
		! grep '"kind":"activity"' "$$f" | grep -qvF "$$id," || \
			{ echo "smoke: $$f: an activity span does not carry $$id"; exit 1; }; \
	done; \
	$(GO) run ./cmd/sqlsh -f cmd/sqlsh/testdata/replan.sql > "$$dir/sqlsh.txt"; \
	grep -q "INDEX PROBE Orders USING orders_cust" "$$dir/sqlsh.txt" || \
		{ echo "smoke: EXPLAIN did not move onto the new index (see $$dir/sqlsh.txt)"; exit 1; }; \
	$(GO) run ./cmd/tables -verify > "$$dir/tables.txt"; \
	$(GO) run ./cmd/patterncheck > "$$dir/patterncheck.txt"; \
	echo "smoke: artifacts in $$dir"

# The gate: build, vet, formatting, the suite without the race detector
# (the allocation gates — TestAllocBudget, TestCursorLoopScalesLinearly —
# skip under it), the benchmark module's own tests (so an API the harness
# pins cannot break unseen), the CLIs (smoke), the full
# race-enabled suite (soak included), then the fuzz smoke.
ci: build vet fmt test bench-test smoke race fuzz

# Non-test Go lines outside bench/: the size ROADMAP item 2 tracks and
# every PR reports before/after.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# What the system's own suites reach of internal/: the root package's
# tests and the pattern conformance cases (-short), one profile over
# every internal package. A block counts once however many test binaries
# report it; reached/total statements print overall, then per package and
# per file, most unreached first.
reach:
	@$(GO) test -short -coverpkg=./internal/... -coverprofile=reach.out . ./internal/patterns > /dev/null
	@awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
	function row(r, t, name) { printf "%6d  %5d / %5d  %5.1f %%  %s\n", t - r, r, t, 100 * r / t, name | "sort -rn" } \
	END { \
		for (k in n) { \
			f = k; sub(/:.*/, "", f); p = f; sub(/\/[^\/]*$$/, "", p); \
			tot += n[k]; ft[f] += n[k]; pt[p] += n[k]; \
			if (k in hit) { r += n[k]; fr[f] += n[k]; pr[p] += n[k] } \
		} \
		printf "reached %d / %d statements (%.1f %%)\nunreached  reached / total  package\n", r, tot, 100 * r / tot; fflush(); \
		for (p in pt) row(pr[p], pt[p], p); close("sort -rn"); \
		print "unreached  reached / total  file"; fflush(); \
		for (f in ft) row(fr[f], ft[f], f); close("sort -rn") \
	}' reach.out

clean:
	$(GO) clean ./...
	rm -rf coverage.out reach.out .bench_build
