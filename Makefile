# Tier-1 verification and development targets.
#
#   make verify   — full gate: build, vet, fpgavet lint, race-free tests,
#                   race-enabled tests, and the portable (purego / arm64)
#                   side of the two assembly kernels (internal/cpupart's
#                   flush, internal/hashutil's AVX2 murmur block)
#   make tier1    — the minimal tier-1 loop (build + test)
#   make lint     — fpgavet static-analysis suite, five analyzers
#                   (determinism, boundary-reach, error hygiene, bench-json,
#                   hotpath-alloc)
#   make lint-json — same suite, findings as a machine-readable JSON array
#                   (what the CI lint job uploads as an artifact)
#   make bench    — regenerate the committed perfbench baseline
#   make bench-gate — run the perf matrix and fail on any gated
#                   (simulated, deterministic) metric change vs the baseline
#   make loc      — non-test Go lines per top-level directory (internal/ by
#                   package) and their total, the figures ROADMAP's line
#                   targets count
#   make pairs REF=<rev> [W=circuit_steady] [N=10] [S=14]
#                 — the host benchmark at REF against the working tree, in
#                   alternating pairs: medians, quartiles and wins per side
#
# test and tier1 give each package's test binary five minutes (a full run
# takes about 20 s), so a hang fails fast instead of holding the run for
# go test's default ten. The race target covers every package. Its longest
# are fpgapart/experiments (each paper experiment executes once per test
# binary, and TestPaperClaims runs Figure 9's bars at 8 Mi tuples: 135–160 s
# under -race on a 2-core box, 8–10 s without) and fpgapart/internal/core
# (TestFigure9OperatingPoints and TestRawFPGAThroughput drive the circuit at
# 8 Mi tuples, and TestFigure10PartitioningFlat adds one more run: 105 s
# under -race alone, 98 s without that test, 143 s beside the other packages
# in make race, 5–8 s without -race).

GO ?= go

.PHONY: verify tier1 build vet lint lint-json test race portable bench bench-gate trace-demo fuzz loc pairs

verify: build vet lint test race portable

tier1:
	$(GO) build ./... && $(GO) test -timeout 5m ./...

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/fpgavet ./...

# lint-json emits the same findings as a stable JSON array on stdout; CI
# redirects it to fpgavet.json and uploads it as an artifact.
lint-json:
	$(GO) run ./cmd/fpgavet -json ./...

test:
	$(GO) test -timeout 5m ./...

race:
	$(GO) test -race -timeout 20m ./...

# Two host-only kernels are amd64 assembly: internal/cpupart/store_amd64.s
# flushes the CPU partitioner's write-combining buffers, and
# internal/hashutil/block_amd64.s hashes eight keys per instruction for the
# CPU partitioner (AVX2, chosen at init by CPUID). portable keeps the other
# side honest: the generic fallbacks tested on this machine (-tags purego),
# with partition and internal/core, which hash through hashutil, and a
# non-amd64 build plus vet (asmdecl checks the stubs against the assembly on
# amd64 in `vet` above).
portable:
	$(GO) test -tags purego ./internal/cpupart ./internal/hashutil ./partition ./internal/core
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/cpupart ./internal/hashutil ./internal/core

# bench regenerates the committed baseline. Only needed after an intentional
# change to the simulator's cycle behavior or the scenario matrix; commit the
# updated bench/baseline/BENCH_*.json with the change that caused it.
bench:
	$(GO) run ./cmd/perfbench run -out bench/baseline

# bench-gate is the zero-noise perf regression gate: the gated metrics are
# simulated cycles (deterministic for a fixed seed), so any diff against the
# baseline is a true regression. It compares every committed baseline
# (perfbench's TestEverySuiteHasABaseline holds them to the suite list). On
# failure the diverging report is left at bench/baseline/BENCH_<suite>.got.json.
bench-gate:
	$(GO) run ./cmd/perfbench run -out bench/out
	@fail=0; \
	for base in bench/baseline/BENCH_*.json; do \
		case $$base in *.got.json) continue ;; esac; \
		$(GO) run ./cmd/perfbench compare $$base bench/out/$${base##*/} || fail=1; \
	done; \
	exit $$fail

# loc counts the lines of the committed non-test .go files, testdata/
# fixtures aside. The total leaves benchmark/ out; its own line, printed
# after the total, is what ROADMAP item 5 counts. The last line is
# DESIGN.md's length, which lint.TestDesignIsLegible caps.
loc:
	@git ls-files '*.go' | grep -v -e '_test\.go$$' -e 'testdata/' | xargs awk ' \
		FNR == 1 { n = split(FILENAME, p, "/"); d = n > 2 && p[1] == "internal" ? p[1] "/" p[2] : n > 1 ? p[1] : "." } \
		{ lines[d]++ } \
		END { \
			for (d in lines) if (d != "benchmark") { printf "%6d %s\n", lines[d], d | "sort -k2"; total += lines[d] } \
			close("sort -k2"); \
			printf "%6d total, benchmark/ aside\n%6d benchmark\n", total, lines["benchmark"] \
		}'
	@wc -l < DESIGN.md | awk '{ printf "%6d DESIGN.md\n", $$1 }'

# trace-demo exercises the causal-tracing stack end to end on a faulty
# sharded run and a faulty standalone scheduler run: each prints the
# critical-path profile and writes the per-request breakdown JSON and the
# flight-recorder postmortem; the sharded run also writes the Chrome trace
# (open bench/out/trace.json in chrome://tracing or Perfetto — the req*
# track carries the root spans and flow arrows).
trace-demo:
	@mkdir -p bench/out
	$(GO) run ./cmd/cluster run -requests 32 -quota 2 -hot 0.4 -faulty \
		-reqtrace bench/out/reqtrace_breakdown.json \
		-flight bench/out/flight_postmortem.txt \
		-trace bench/out/trace.json
	$(GO) run ./cmd/partserver run -jobs 64 -faulty \
		-reqtrace bench/out/partserver_reqtrace_breakdown.json \
		-flight bench/out/partserver_flight_postmortem.txt

# fuzz runs every fuzz target of the module, as `go test -list` finds them,
# for a short smoke window each (Go's fuzzer accepts one -fuzz target per
# invocation). CI runs the same loop; raise FUZZTIME locally for a deeper
# session.
FUZZTIME ?= 30s
fuzz:
	@list=$$($(GO) test -list '^Fuzz' ./...) || { echo "$$list"; exit 1; }; \
	for t in $$(echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2 ":" f[i]; n = 0 }'); do \
		pkg=$${t%%:*}; target=$${t##*:}; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$target$$" -fuzztime $(FUZZTIME) || exit 1; \
	done

# pairs builds ./benchmark at REF (in a temporary git worktree) and in the
# working tree and runs the two N times each on workload W for S seconds,
# alternating which goes first; it prints every end-to-end metric's median
# and quartiles per side and how many pairs each side won (bench/pairs.sh).
W ?= circuit_steady
N ?= 10
S ?= 14
pairs:
	@test -n "$(REF)" || { echo "usage: make pairs REF=<rev> [W=circuit_steady] [N=10] [S=14]" >&2; exit 2; }
	sh bench/pairs.sh $(REF) $(W) $(N) $(S)
