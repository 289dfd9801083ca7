//go:build race

package sim

// forkMinEvents is 1 under the race detector: every window with two or
// more active shards forks, so race builds exercise concurrent windows
// that the production threshold (fork.go) would run inline. Results are
// identical either way, which the race suite thereby cross-checks.
const forkMinEvents = 1
