GO ?= go

.PHONY: build test vet check

build:
	$(GO) build ./...

# Tier-1 verify: fast, every PR must keep this green.
test:
	$(GO) build ./... && $(GO) test ./...

# The stock vet plus the repository's own static-analysis suite (see
# internal/analysis): errcheck and locksafe, with stale-suppression
# detection. The buffalo-vet line is the one scripts/check.sh runs.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/buffalo-vet -timing ./...

# Extended verify tier: gofmt + go vet + buffalo-vet + race-enabled tests.
check:
	./scripts/check.sh
