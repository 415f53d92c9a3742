GO ?= go

.PHONY: build test check bench tables

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Pre-push gate: vet + full suite + the suite again under the race detector.
check:
	@sh scripts/check.sh

bench:
	$(GO) test -bench=. -benchmem ./...

tables:
	$(GO) run ./cmd/benchtab
