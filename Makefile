# Development targets. `make check` is the CI gate: formatting, vet, and
# the full test suite under the race detector, which guards vrpd's
# concurrent requests and the locks of the response cache, the
# per-function store and the flight recorder.

GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet race fmt check perf-gate quality-gate serve

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# Fail fast on formatting drift: list the offending files and exit nonzero.
fmt:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

check: fmt vet race

# Perf-ledger gate: rewrite BENCH_perf.json (median ns/instr with its
# spread, the parse/ssa/vrp split and allocs/instr, over interleaved
# rounds of merged corpus programs and the generated 10k/100k tiers) and
# fail if any point allocates more than 2% above the committed ledger per
# instruction, or if gen-100k's ns/instr exceeds 2× gen-10k's. A failing
# gate leaves the committed ledger untouched. Compare allocs/instr only
# under the go_version the ledger records.
perf-gate:
	$(GO) run ./cmd/vrpbench -perf -gate

# Prediction-quality gate: rewrite BENCH_quality.json (per-suite quality
# and every predictor's probability error) and fail if interpreter
# direction agreement or the range-certain fraction regresses below the
# committed baseline on any suite, or if VRP's weighted error on the
# corpus is not below Ball–Larus's (DESIGN.md §3.12).
quality-gate:
	$(GO) run ./cmd/vrpbench -quality -gate

# Run the analysis server (README "Running the server").
serve:
	$(GO) run ./cmd/vrpd
