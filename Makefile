GO ?= go

.PHONY: build test test-short vet race check check-short bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Fast tier: skips the scaled harness integration runs.
test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 45m ./...

# The full pre-merge gate: build, vet, race-enabled tests.
check:
	./scripts/check.sh

# The fast gate CI runs on every push: short-tier tests only.
check-short:
	SHORT=1 ./scripts/check.sh

# The repository benchmark (BENCHMARK.json): five workloads, calibrated host
# cost and exact virtual results; see bench/README.md.
bench:
	bash bench/run.sh
