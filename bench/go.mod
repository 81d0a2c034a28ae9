// The benchmark is a module of its own so the repository's `go build ./...`
// and `go test ./...` never compile or run it; its import path sits under
// kepler/, which is what lets it import kepler/internal/... .
module kepler/bench

go 1.22

require kepler v0.0.0

replace kepler => ../
