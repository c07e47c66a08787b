// Package histats is a scope fixture for the steppoint analyzer: a
// field named "groups" outside package hihash is not an HI word, and its
// atomics are not protocol steps. No diagnostics expected.
package histats

import "sync/atomic"

type shard struct {
	groups [64]atomic.Uint64
}

func (sh *shard) observe(b int) {
	sh.groups[b].Add(1)
}
