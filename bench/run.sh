#!/usr/bin/env bash
# Builds the loop benchmark inside the checkout (build cache included) and
# runs it with the given arguments. See README.md.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out
export GOCACHE="$PWD/out/gocache" GOTOOLCHAIN=local
go build -o out/loopbench .
exec ./out/loopbench "$@"
