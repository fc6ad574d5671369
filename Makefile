# Convenience targets for the CLA reproduction. `make check` is the
# tier-1 verification from ROADMAP.md plus the race extras; CI and
# pre-merge runs should use it.

GO ?= go

.PHONY: all build check test vet fmt race bench-module bench bench-smoke fuzz-smoke clean

all: build

build:
	$(GO) build ./...

# gofmt must be a no-op; print the offending files and fail otherwise.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race extras: the parallel pipeline, the pre-transitive wave fixpoint,
# the checks engine, the shared set layer, the query-serving layer, the
# metrics layer, the incremental pipeline, the shared dependence index
# and the leading-include memo (whose entries, checked header scopes
# included, every compile worker reads) must stay race-clean and
# deterministic at any -j.
race:
	$(GO) test -race ./internal/core ./internal/driver ./internal/linker ./internal/parallel ./internal/pts/worklist ./internal/checks ./internal/pts/set ./internal/serve ./internal/extmodel ./internal/obs ./internal/snapfile ./internal/incr ./internal/depend ./internal/frontend ./internal/cpp ./internal/cc ./internal/ctypes

# The benchmark is its own module (benchmark/go.mod), so the root
# `./...` patterns skip it; vet it and run its ~5 s smoke test so an
# internal API change cannot break it unnoticed.
bench-module:
	cd benchmark && $(GO) vet ./... && $(GO) test .

check: build fmt vet test race bench-module

# The per-table Go benchmarks (BenchmarkTable2Compile ... BenchmarkEndToEnd)
# live in the root package; `GOFLAGS=-benchtime=1x make bench` runs each once.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem .

# One-iteration benchmark compile-and-run: catches benchmarks that rot
# (build failures, panics) without paying for stable timings.
bench-smoke:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/pts/set ./internal/core ./internal/frontend ./internal/incr ./internal/objfile ./internal/snapfile ./internal/serve

# Short fuzz runs over the binary object-file reader, the trace encoder,
# the adaptive set layer, the extern-model path, the solved-snapshot
# reader, the C frontend's token hand-off, the whole compile phase and
# the incremental pipeline's edits: corrupt inputs must error (never
# panic or corrupt output), set operations must match their map oracles,
# the extern models must stay monotone and deterministic on arbitrary
# translation units, the preprocessor's tokens must equal those of its
# marker-text reference, every compiled unit must be rejected with an
# error or solved alike by the three exact solvers (and within the two
# unification ones), every incremental generation must equal a scratch
# open, every compile cut off at its tokens must equal a full compile,
# and every spliced relink must equal the full link fold. The
# default -fuzzminimizetime (60 s) lets minimizing one new input take
# the rest of a 10 s run; FUZZMIN caps it, on every target whose run
# otherwise ended minimizing at 0 execs/sec.
FUZZMIN = -fuzzminimizetime=1s
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s $(FUZZMIN) ./internal/objfile
	$(GO) test -run=^$$ -fuzz=FuzzTrace -fuzztime=10s $(FUZZMIN) ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzSetOps -fuzztime=10s $(FUZZMIN) ./internal/pts/set
	$(GO) test -run=^$$ -fuzz=FuzzExterns -fuzztime=10s $(FUZZMIN) ./internal/extmodel
	$(GO) test -run=^$$ -fuzz=FuzzSnapshot -fuzztime=10s $(FUZZMIN) ./internal/snapfile
	$(GO) test -run=^$$ -fuzz=FuzzPreprocessTokens -fuzztime=10s $(FUZZMIN) ./internal/frontend
	$(GO) test -run=^$$ -fuzz=FuzzCompile -fuzztime=10s $(FUZZMIN) ./internal/frontend
	$(GO) test -run=^$$ -fuzz=FuzzIncrEdits -fuzztime=10s $(FUZZMIN) ./internal/incr
	$(GO) test -run=^$$ -fuzz=FuzzLinkSplice -fuzztime=10s ./internal/linker

clean:
	$(GO) clean ./...
