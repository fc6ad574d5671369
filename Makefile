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

# Race extras: the parallel pipeline, the wave fixpoints, the checks
# engine, the shared set layer, the query-serving layer, the metrics
# layer, the incremental pipeline and the shared dependence index must
# stay race-clean and deterministic at any -j.
race:
	$(GO) test -race ./internal/core ./internal/driver ./internal/linker ./internal/parallel ./internal/pts/worklist ./internal/checks ./internal/pts/set ./internal/serve ./internal/extmodel ./internal/obs ./internal/snapfile ./internal/incr ./internal/depend

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
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./internal/pts/set ./internal/core

# Short fuzz runs over the binary object-file reader, the trace encoder,
# the adaptive set layer, the extern-model path, the solved-snapshot
# reader, the C frontend's token hand-off and the incremental pipeline's
# edits: corrupt inputs must error (never panic or corrupt output), set
# operations must match their map oracles, the extern models must stay
# monotone and deterministic on arbitrary translation units, the
# preprocessor's tokens must equal those of its marker-text reference,
# and every incremental generation must equal a scratch open.
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzReader -fuzztime=10s ./internal/objfile
	$(GO) test -run=^$$ -fuzz=FuzzTrace -fuzztime=10s ./internal/obs
	$(GO) test -run=^$$ -fuzz=FuzzSetOps -fuzztime=10s ./internal/pts/set
	$(GO) test -run=^$$ -fuzz=FuzzExterns -fuzztime=10s ./internal/extmodel
	$(GO) test -run=^$$ -fuzz=FuzzSnapshot -fuzztime=10s ./internal/snapfile
	$(GO) test -run=^$$ -fuzz=FuzzPreprocessTokens -fuzztime=10s ./internal/frontend
	$(GO) test -run=^$$ -fuzz=FuzzIncrEdits -fuzztime=10s ./internal/incr

clean:
	$(GO) clean ./...
