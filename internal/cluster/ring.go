// Package cluster is the horizontal scale-out layer of the tuning
// service: a consistent-hash ring that shards the canonical request
// key space over N hetserved nodes (so each node's warm-start store
// and trained models stay hot for its slice), a router that decides
// local-vs-forward and tracks peer health, a pooled stdlib HTTP peer
// client, and a bounded asynchronous replicator that copies completed
// hot store entries to each key's ring-successor follower for
// failover. See DESIGN.md, "The cluster layer".
//
// The package is deliberately below the serving layer: it knows about
// node names (base URLs), key bytes and opaque replication payloads,
// never about tune requests — internal/serve composes it into the
// HTTP handlers.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-node virtual-node count: enough
// points that a 3-node ring stays within a few percent of fair share
// (the ±20% balance bound is pinned by tests at this value), few
// enough that a lookup's binary search stays cache-resident.
const DefaultVirtualNodes = 128

// Ring is an immutable consistent-hash ring: each node contributes
// virtualNodes points hashed onto a 64-bit circle (FNV-1a, the same
// hash family the sharded store routes stripes with), and a key is
// owned by the first point at or clockwise of the key's own hash.
// Construct with New; lookups are concurrency-safe and allocation-free
// (pinned by a tracked bench).
//
// Determinism contract: the ring is a pure function of the sorted node
// name set and the virtual-node count — input order never matters, so
// every node of a cluster computes identical ownership, and a golden
// test pins the point layout so ownership never drifts across PRs
// (a drift would silently cold-start every store).
type Ring struct {
	points []ringPoint // sorted by hash, ties broken by node index
	nodes  []string    // sorted, deduplicated
}

// ringPoint is one virtual node on the circle.
type ringPoint struct {
	hash uint64
	node int32 // index into nodes
}

// New builds a ring over the given node names (base URLs in the
// serving layer). Names are deduplicated and sorted, so every cluster
// member builds the same ring whatever order its -peers flag lists.
// virtualNodes <= 0 selects DefaultVirtualNodes.
func New(nodes []string, virtualNodes int) (*Ring, error) {
	if virtualNodes <= 0 {
		virtualNodes = DefaultVirtualNodes
	}
	seen := make(map[string]bool, len(nodes))
	uniq := make([]string, 0, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node name")
		}
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	sort.Strings(uniq)
	r := &Ring{
		nodes:  uniq,
		points: make([]ringPoint, 0, len(uniq)*virtualNodes),
	}
	var buf [24]byte
	for ni, name := range uniq {
		for v := 0; v < virtualNodes; v++ {
			h := fnv1a(offset64, name)
			h = fnv1aByte(h, '#')
			h = fnv1aBytes(h, strconv.AppendInt(buf[:0], int64(v), 10))
			r.points = append(r.points, ringPoint{hash: mix64(h), node: int32(ni)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the sorted node name set (callers must not mutate).
func (r *Ring) Nodes() []string { return r.nodes }

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func fnv1aBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func fnv1aByte(h uint64, c byte) uint64 {
	h ^= uint64(c)
	h *= prime64
	return h
}

// mix64 is a 64-bit finalizer (murmur3 fmix64): vnode point strings
// differ only in their numeric suffix and catalog keys share long
// prefixes, so raw FNV-1a values are correlated enough to skew the
// ±20% balance bound; the finalizer's avalanche restores uniformity.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// ownerPoint returns the index of the first ring point at or clockwise
// of hash h (wrapping past the top of the circle).
func (r *Ring) ownerPoint(h uint64) int {
	pts := r.points
	// Binary search: first point with hash >= h.
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0 // wrap
	}
	return lo
}

// Owner returns the node owning key.
func (r *Ring) Owner(key []byte) string {
	if len(r.nodes) == 1 {
		return r.nodes[0]
	}
	return r.nodes[r.points[r.ownerPoint(mix64(fnv1aBytes(offset64, key)))].node]
}

// Lookup returns the node owning key and its follower — the next
// distinct node clockwise on the ring, which is where completed
// entries for the key are replicated and where the router fails over
// when the owner is unreachable. A single-node ring returns the node
// as both.
func (r *Ring) Lookup(key []byte) (owner, follower string) {
	if len(r.nodes) == 1 {
		return r.nodes[0], r.nodes[0]
	}
	pts := r.points
	i := r.ownerPoint(mix64(fnv1aBytes(offset64, key)))
	own := pts[i].node
	// Walk clockwise to the first point of a different node. The walk
	// terminates: the ring holds points of >= 2 distinct nodes.
	j := i
	for {
		j++
		if j == len(pts) {
			j = 0
		}
		if pts[j].node != own {
			return r.nodes[own], r.nodes[pts[j].node]
		}
	}
}
