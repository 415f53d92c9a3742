#!/bin/sh
# Pre-push checks: vet everything, run the full suite, then run it again
# under the race detector.
set -eu
cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "check: OK"
