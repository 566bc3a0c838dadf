package cachestore

import (
	"approxcache/internal/lsh"
	"approxcache/internal/simclock"
)

// ShardedConfig, ShardedStore, ShardStat and NewSharded are a deprecated
// shim: the harness under benchmarks/ still calls them, and they go when
// it stops (ROADMAP 1(A+B)). A node is one Store over one index.
//
// Only Config is read; its Capacity is the whole store's.
type ShardedConfig struct {
	Config
	Dim, Shards int
	RouterSeed  int64
}

// ShardedStore is a Store under its old name.
type ShardedStore struct{ *Store }

// ShardStat is the element type of ShardStats.
type ShardStat struct{ Contended int64 }

// NewSharded builds one Store over newIndex(0), whatever cfg.Shards says.
func NewSharded(cfg ShardedConfig, newIndex func(shard int) (lsh.Index, error), clock simclock.Clock) (*ShardedStore, error) {
	idx, err := newIndex(0)
	if err != nil {
		return nil, err
	}
	s, err := New(cfg.Config, idx, clock)
	if err != nil {
		return nil, err
	}
	return &ShardedStore{Store: s}, nil
}

// ShardStats returns nil: there are no shards.
func (*ShardedStore) ShardStats() []ShardStat { return nil }
