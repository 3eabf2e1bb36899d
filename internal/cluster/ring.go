package cluster

import (
	"sort"
	"strconv"

	"precursor/internal/heat"
)

// DefaultVirtualNodes is the per-shard virtual-node count of a Client's
// ring, and of a Ring built with vnodes <= 0. 160 points per shard
// keeps the keyspace balance within a few percent for small clusters
// while the ring stays tiny (N*160 uint64s).
const DefaultVirtualNodes = 160

// Ring is a consistent-hash ring over shard names with virtual nodes.
//
// Placement depends only on the shard names (not on list order or on the
// other members), so two clients with the same membership list agree on
// every key's home, and adding a shard to an N-shard ring moves only
// ~1/(N+1) of the keyspace — the property the ring unit tests pin down.
//
// A Ring is immutable after NewRing and safe for concurrent use.
type Ring struct {
	shards []string // sorted, deduplicated
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// NewRing builds a ring over the given shard names with vnodes virtual
// nodes per shard (DefaultVirtualNodes when vnodes <= 0). Duplicate names
// are collapsed; an empty list yields a ring whose Lookup returns "".
func NewRing(shards []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	r := &Ring{shards: uniq, vnodes: vnodes}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for i, s := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  heat.HashKey(s + "#" + strconv.Itoa(v)),
				shard: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r
}

// Lookup returns the shard owning key: the first virtual node clockwise
// from the key's hash. Returns "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	i := r.lookupIndex(key)
	if i < 0 {
		return ""
	}
	return r.shards[i]
}

// lookupIndex returns the owning shard's index into Shards(), or -1.
func (r *Ring) lookupIndex(key string) int {
	if len(r.points) == 0 {
		return -1
	}
	h := heat.HashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap around
	}
	return r.points[i].shard
}

// Shards returns the ring's membership, sorted. The slice is shared; do
// not modify it.
func (r *Ring) Shards() []string { return r.shards }

// VirtualNodes returns the per-shard virtual-node count.
func (r *Ring) VirtualNodes() int { return r.vnodes }

// OwnershipFractions returns each shard's exact share of the 64-bit hash
// space (arc lengths between virtual nodes), which estimates its share of
// keys under a uniform key distribution. The fractions sum to ~1.
func (r *Ring) OwnershipFractions() map[string]float64 {
	out := make(map[string]float64, len(r.shards))
	if len(r.points) == 0 {
		return out
	}
	const space = float64(1<<63) * 2 // 2^64
	arcs := make([]float64, len(r.shards))
	for i, p := range r.points {
		var arc uint64
		if i == 0 {
			// Wrap-around arc: from the last point through 2^64 to the first.
			arc = p.hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			arc = p.hash - r.points[i-1].hash
		}
		arcs[p.shard] += float64(arc)
	}
	for i, s := range r.shards {
		out[s] = arcs[i] / space
	}
	return out
}
