GO ?= go
FUZZTIME ?= 30s
# Minimum aggregate statement coverage (percent) over ./internal/...
COVERFLOOR ?= 80

.PHONY: ci filesize fmt vet build test benchmark-test microbench race cover oracle chaos chaosload-smoke bench-smoke bench-gate bench-record serve-smoke sanitize-smoke fuzz-smoke fuzz-oracle fuzz-machine fuzz-sanitize fuzz-asm fuzz-lattice fuzz-fpu fuzz-serve bench

# ci runs the stages .github/workflows/ci.yml runs, in the same order; each
# CI step calls one of these targets, so every command lives here only.
ci: filesize fmt vet build test benchmark-test microbench race cover oracle chaos bench-gate serve-smoke chaosload-smoke sanitize-smoke fuzz-smoke

# Tracked-file size guard: no file in the index may be larger than 1 MiB, so
# build outputs such as the CLI binaries cannot be committed again. The
# largest legitimate file, a benchmark reference output, is about 500 KiB.
filesize:
	@git ls-files -z | xargs -0 -r stat -c '%s %n' 2>/dev/null | \
	awk '$$1 > 1048576 { print "tracked file over 1 MiB: " $$0; bad = 1 } END { exit bad }'

fmt:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then echo "gofmt needed on:"; echo "$$files"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The benchmark directory is a Go module of its own (it reaches this one
# through a replace), so `test` above does not reach it. Its tests show that
# the benchmark's output checks fire.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The dispatch (BenchmarkStepDispatch and BenchmarkRunDispatch: one
# sub-benchmark per hot instruction form, one Step call or Run over the
# dispatch loop), trap-delivery
# (Vanilla per op and operand form, and MPFR-200), FPU (each fast-pathed op
# inside and outside its exponent window), superblock-entry,
# session-alternation, set-up (analysis and image build per Figure 12
# workload) and MPFR kernel (basic ops and transcendentals at 200 bits,
# Sqrt and Div at Log's and Atan's 264-bit working precision, decimal text,
# mpnat's square root) and MPFR-200 store (promote, multiply, box into a new
# key cell) microbenchmarks, run for a fixed short count so they keep
# building and running, with their allocations reported (the numbers are not
# gated).
microbench:
	$(GO) test -run '^$$' -bench '^Benchmark(StepDispatch|RunDispatch|TrapDelivery|TrapDeliveryMPFR)$$' -benchtime 2000x -benchmem ./internal/machine
	$(GO) test -run '^$$' -bench '^BenchmarkOps$$' -benchtime 2000x -benchmem ./internal/fpu
	$(GO) test -run '^$$' -bench 'TraceEntry' -benchtime 2000x -benchmem ./internal/fpvm
	$(GO) test -run '^$$' -bench 'SessionAlternate' -benchtime 200x -benchmem ./internal/session
	$(GO) test -run '^$$' -bench '^BenchmarkAnalyze$$' -benchtime 20x -benchmem ./internal/patch
	$(GO) test -run '^$$' -bench '^Benchmark((Add|Mul|Sqr|Div|Sqrt|Sin|Log|Asin|Atan|Text)200|(Sqrt|Div)264|SqrtRem)$$' -benchtime 2000x -benchmem ./internal/mpfr ./internal/mpnat
	$(GO) test -run '^$$' -bench '^BenchmarkMPFRStoreBox$$' -benchtime 2000x -benchmem ./internal/arith

# The concurrent layers under the race detector: the parallel experiment
# harness, the pooled-session stack, and the multi-tenant server, plus the
# fpvm-layer cross-tenant check (many tenants sharing published traces).
race:
	$(GO) test -race ./internal/experiments ./internal/session ./internal/loadgen ./cmd/fpvm-serve
	$(GO) test -race -run '^TestSBCacheConcurrentTenants$$' ./internal/fpvm

# Coverage gate: the aggregate statement coverage of ./internal/... must not
# fall below COVERFLOOR percent. The profile is left in coverage.out (CI
# publishes it as an artifact).
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total internal coverage: $$total% (floor $(COVERFLOOR)%)"; \
	awk -v t="$$total" -v floor="$(COVERFLOOR)" 'BEGIN { exit (t+0 < floor+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVERFLOOR)% floor"; exit 1; }

# Differential oracle over every workload and example: native vs
# FPVM+vanilla must be bit-identical, with MPFR and posit shadow reports. The
# whole report must also equal ORACLEGOLDEN byte for byte: every number in it
# is modeled, so any difference is a change of behaviour. After a change that
# moves the report on purpose, re-record it with
#   go run ./cmd/fpvm-run -oracle > internal/oracle/testdata/oracle.golden
# and say in CHANGES.md which lines moved and why.
ORACLEGOLDEN = internal/oracle/testdata/oracle.golden
oracle:
	@out=$$(mktemp); trap 'rm -f "$$out"' EXIT; \
	$(GO) run ./cmd/fpvm-run -oracle > "$$out" || { cat "$$out"; exit 1; }; \
	diff -u $(ORACLEGOLDEN) "$$out" || { echo "oracle report differs from $(ORACLEGOLDEN)"; exit 1; }; \
	tail -1 "$$out"

# Chaos suite: every workload and example under seeded fault-injection
# campaigns, enforcing the degradation invariants (no panics, termination,
# error-tier bit-identity, no NaN-box leaks), plus the panic tier (injected
# trap-handler panics contained as session quarantines). Failures print the
# reproducing seed; replay one with `fpvm-run -chaos -faults seed=N,...`.
# The serving stack's chaos-under-load campaign is chaosload-smoke.
chaos:
	$(GO) test -run '^TestChaosFull$$' -v ./internal/chaos

# Chaos-under-load smoke: an ephemeral-port server with fault injection
# armed, concurrent healthy + hostile tenant streams, hard resilience
# invariants (panics contained, breakers isolate hostile tenants, quarantine
# ledger balances, clean drain).
chaosload-smoke:
	$(GO) run ./cmd/fpvm-serve -chaosload

# Machine-readable bench records with the sequence-emulation and trace-JIT
# ablations: exercises the -json path, the trap-coalescing runtime, and the
# superblock tier end to end.
bench-smoke:
	$(GO) run ./cmd/fpvm-bench -json -quick -seqlen 16 -jit 8 > /dev/null

# Canonical bench options: the configuration every checked-in BENCH_N.json is
# produced under. The gate refuses to compare documents with different
# options, so record and gate must agree. The JIT entered at BENCH_7.json;
# BENCH_10.json is the first record made under exactly these options.
BENCHOPTS = -quick -seqlen 16 -jit 8 -sessions 500 -load-j 16
# Newest checked-in bench record (highest N).
BENCHBASE = $(shell ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)

# Regression gate: rerun the bench and fail on cycles/traps/ns-per-step
# regressions or session-load errors vs the newest checked-in record.
bench-gate:
	$(GO) run ./cmd/fpvm-bench $(BENCHOPTS) -gate $(BENCHBASE)

# Regenerate the newest checked-in bench record in place (run on a quiet
# machine; commit the result). Bump the filename to BENCH_<N+1>.json when a
# PR intentionally moves the numbers.
bench-record:
	$(GO) run ./cmd/fpvm-bench -json $(BENCHOPTS) -out $(BENCHBASE) > /dev/null

# Serve smoke: ephemeral-port server, 50 concurrent POST /run requests via
# the HTTP load harness, all must be 200s and the shutdown clean.
serve-smoke:
	$(GO) run ./cmd/fpvm-serve -smoke

# Sanitizer smoke (DESIGN.md §12): the corpus expectations (naive kernels
# flagged at the guilty PC, stable rewrites clean), then one NAS target under
# -sanitize (report must be non-empty: grep for the banner's site count) and
# under -certify (exit 0 = every output proved inside its enclosure).
sanitize-smoke:
	$(GO) test -run '^TestCorpus$$' ./internal/sanitize
	$(GO) run ./cmd/fpvm-run -workload "NAS EP/Class S" -sanitize | grep -q 'samples over [1-9][0-9]* sites'
	$(GO) run ./cmd/fpvm-run -workload "NAS EP/Class S" -certify > /dev/null

# Short coverage-guided fuzzing passes (beyond the checked-in seed corpus,
# which already runs as part of `test`).
fuzz-smoke: fuzz-oracle fuzz-machine fuzz-sanitize fuzz-asm fuzz-lattice fuzz-fpu fuzz-serve

fuzz-oracle:
	$(GO) test -run '^$$' -fuzz '^FuzzDifferentialOracle$$' -fuzztime $(FUZZTIME) ./internal/oracle

fuzz-machine:
	$(GO) test -run '^$$' -fuzz '^FuzzRawExecution$$' -fuzztime $(FUZZTIME) ./internal/machine

fuzz-sanitize:
	$(GO) test -run '^$$' -fuzz '^FuzzSanitize$$' -fuzztime $(FUZZTIME) ./internal/sanitize

fuzz-asm:
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime $(FUZZTIME) ./internal/asm

# The FPU's exponent-window fast path against its exact path: add, sub, mul,
# div and sqrt on arbitrary operand bits must agree bit for bit on the value
# and all six flags (checked-in corpus at the window edges).
fuzz-fpu:
	$(GO) test -run '^$$' -fuzz '^FuzzFPU$$' -fuzztime $(FUZZTIME) ./internal/fpu

# The configuration lattice beyond its tier-1 rows: one fuzzed lattice row
# (program, and a value for every dimension) per iteration under the
# invariant table (internal/lattice).
fuzz-lattice:
	$(GO) test -run '^$$' -fuzz '^FuzzLattice$$' -fuzztime $(FUZZTIME) ./internal/lattice

# The service edge: arbitrary POST /run bodies through fpvm-serve's handler
# must each end in a client status (200, 400, 403, 413, 429 or 503) without a
# panic (seed corpus: a named workload, inline asm, an over-cap
# precision, an over-long tenant, empty and oversized bodies, a fault spec).
# Minimizing a new input is capped at 200 runs: the default 60 s
# minimization of a grown 1 MiB body would take most of the fuzz time.
fuzz-serve:
	$(GO) test -run '^$$' -fuzz '^FuzzServeRun$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 200x ./cmd/fpvm-serve

bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...
