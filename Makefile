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

# Race-enabled run of everything; the one-goroutine-per-instance tests
# (TestFlowConcurrentVariableAccess: two instances' variables, no lock;
# TestParallelSpanTreesMatchSerial: span parents under concurrency),
# sqldb's TestConcurrentWritersReplayOnReplica (the change stream of
# concurrent writers under the one writer lock) and the chaos matrix are
# only meaningful with the race detector on.
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

# Fuzz smoke: every Fuzz target `go test -list` finds, per package, for
# 15s each. What each holds to: the WAL scanner survives arbitrary bytes
# and the record codec decodes or tears within a frame; script splitting,
# normalization and slot numbering are stable on their own output (seeded
# with statements the SQL dialect accepts, and one it refuses each); index,
# group and value keys agree with compareValues; LIKE is refused whatever
# its operands; a long-lived session returns what fresh ones do; a block
# clone equals its source; the streamed WF persistence XML equals its
# xdm tree; an XPath expression Compile accepts keeps its source and
# evaluates without a panic; and a cursor's borrowed binds leave every
# variable as binds that copy the row do, whatever is written between.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$f"; \
			$(GO) test -run '^$$' -fuzz="^$$f\$$" -fuzztime=15s $$pkg; \
		done; \
	done

# The CLIs end to end, writing into ARTIFACTS (a fresh temporary
# directory when unset), e.g.
#   make smoke ARTIFACTS=artifacts
# cmd/wfrun and cmd/bpelrun run on their testdata and write their span
# traces (JSONL) and metrics snapshots; each trace must hold exactly one
# instance span, of the expected stack, with a non-zero instance id that
# every activity span carries, and no other root span (a line without
# "parent":, which JSONL omits when 0); a traced bpelrun of 8 instances
# on 4 workers must have its 8 instance spans as its only roots;
# cmd/sqlsh runs a script whose
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
	$(GO) run ./cmd/bpelrun -bpel cmd/bpelrun/testdata/figure4.bpel \
		-seed cmd/bpelrun/testdata/seed.sql -instances 8 -parallel 4 \
		-trace "$$dir/bpelrun-parallel-trace.jsonl"; \
	f="$$dir/bpelrun-parallel-trace.jsonl"; \
	[ "$$(grep -vc '"parent":' "$$f")" = 8 ] && [ "$$(grep -v '"parent":' "$$f" | grep -c '"kind":"instance"')" = 8 ] || \
		{ echo "smoke: $$f: want the 8 instance spans as the only roots"; exit 1; }; \
	for t in wfrun:WF bpelrun:BIS; do \
		f="$$dir/$${t%%:*}-trace.jsonl"; \
		[ "$$(grep -c '"kind":"instance"' "$$f")" = 1 ] || \
			{ echo "smoke: $$f: want exactly one instance span"; exit 1; }; \
		id=$$(grep '"kind":"instance"' "$$f" | grep -F "\"stack\":\"$${t#*:}\"" | grep -o '"instance":[1-9][0-9]*') || \
			{ echo "smoke: $$f: the instance span lacks stack $${t#*:} or an instance id"; exit 1; }; \
		! grep '"kind":"activity"' "$$f" | grep -qvF "$$id," || \
			{ echo "smoke: $$f: an activity span does not carry $$id"; exit 1; }; \
		[ "$$(grep -vc '"parent":' "$$f")" = 1 ] || \
			{ echo "smoke: $$f: want the instance span as the only root"; exit 1; }; \
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

# Non-test Go lines outside bench/: the size ROADMAP's north star 2 and
# item 10 track, and every PR reports before/after.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e '^bench/' | xargs cat | wc -l

# What the system's own suites reach of internal/: the root package's
# tests and the pattern conformance cases (-short), plus the examples and
# the smoke runners (cmd/wfrun, cmd/bpelrun, cmd/sqlsh, cmd/tables,
# cmd/patterncheck) built with -cover and run on their testdata. A block
# counts once however many runs report it; reached/total statements
# print overall, then per package and per file, most unreached first,
# each beside the root+patterns figure alone.
REACH_RUNNERS = $(wildcard examples/*) cmd/wfrun cmd/bpelrun cmd/sqlsh cmd/tables cmd/patterncheck
reach:
	@$(GO) test -short -coverpkg=./internal/... -coverprofile=reach.out . ./internal/patterns > /dev/null
	@rm -rf .reach && mkdir -p .reach/cov
	@set -e; for p in $(REACH_RUNNERS); do \
		$(GO) build -cover -coverpkg=./internal/...,./$$p -o .reach/$$(basename $$p) ./$$p; done; \
	export GOCOVERDIR=$$PWD/.reach/cov; \
	for p in $(wildcard examples/*); do .reach/$$(basename $$p) > /dev/null; done; \
	.reach/wfrun -xoml cmd/wfrun/testdata/sample.xoml -seed cmd/wfrun/testdata/seed.sql -var minTotal=5 > /dev/null; \
	.reach/bpelrun -bpel cmd/bpelrun/testdata/figure4.bpel -seed cmd/bpelrun/testdata/seed.sql > /dev/null; \
	.reach/sqlsh -f cmd/sqlsh/testdata/replan.sql > /dev/null; \
	.reach/tables -verify > /dev/null; \
	.reach/patterncheck > /dev/null
	@$(GO) tool covdata textfmt -i=.reach/cov -o .reach/runners.out
	@awk 'FNR > 1 && $$1 ~ /^wfsql\/internal\// { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1; \
		if (FILENAME == "reach.out") { in1[$$1] = 1; if ($$3 > 0) hit1[$$1] = 1 } } \
	function pct(a, b) { return b ? sprintf("%5.1f %%", 100 * a / b) : "    - " } \
	function row(r, t, r1, t1, name) { printf "%6d  %5d / %5d  %s  (root+patterns %s)  %s\n", t - r, r, t, pct(r, t), pct(r1, t1), name | "sort -rn" } \
	END { \
		for (k in n) { \
			f = k; sub(/:.*/, "", f); p = f; sub(/\/[^\/]*$$/, "", p); \
			tot += n[k]; ft[f] += n[k]; pt[p] += n[k]; \
			if (k in hit) { r += n[k]; fr[f] += n[k]; pr[p] += n[k] } \
			if (k in in1) { tot1 += n[k]; ft1[f] += n[k]; pt1[p] += n[k] } \
			if (k in hit1) { r1 += n[k]; fr1[f] += n[k]; pr1[p] += n[k] } \
		} \
		printf "reached %d / %d statements (%s); root+patterns alone %d / %d (%s)\nunreached  reached / total  package\n", r, tot, pct(r, tot), r1, tot1, pct(r1, tot1); fflush(); \
		for (p in pt) row(pr[p], pt[p], pr1[p], pt1[p], p); close("sort -rn"); \
		print "unreached  reached / total  file"; fflush(); \
		for (f in ft) row(fr[f], ft[f], fr1[f], ft1[f], f); close("sort -rn") \
	}' reach.out .reach/runners.out

clean:
	$(GO) clean ./...
	rm -rf coverage.out reach.out .reach .bench_build
