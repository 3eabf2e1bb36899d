package cluster

import (
	"fmt"
	"maps"
	"math"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%08d", i)
	}
	return keys
}

// TestRingDeterminism: placement depends only on the membership set, not
// on list order or on which process computes it.
func TestRingDeterminism(t *testing.T) {
	a := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	b := NewRing([]string{"s3", "s1", "s0", "s2", "s1"}, 0) // shuffled + dup
	for _, k := range ringKeys(2000) {
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("ring order-dependent: %q -> %q vs %q", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

// TestRingBalance: with virtual nodes, per-shard key counts stay within
// 2x of each other (the acceptance bound for the cluster test).
func TestRingBalance(t *testing.T) {
	r := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	counts := map[string]int{}
	for _, k := range ringKeys(20000) {
		counts[r.Lookup(k)]++
	}
	if len(counts) != 4 {
		t.Fatalf("only %d shards received keys: %v", len(counts), counts)
	}
	lo, hi := math.MaxInt, 0
	for _, c := range counts {
		lo, hi = min(lo, c), max(hi, c)
	}
	if hi > 2*lo {
		t.Errorf("imbalance >2x: %v", counts)
	}
}

// TestRingStabilityOnAdd: growing a 4-shard ring to 5 moves at most
// ~1/5 of keys, and every moved key lands on the new shard.
func TestRingStabilityOnAdd(t *testing.T) {
	old := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	grown := NewRing([]string{"s0", "s1", "s2", "s3", "s4"}, 0)
	keys := ringKeys(20000)
	moved, movedElsewhere := 0, 0
	for _, k := range keys {
		was, is := old.Lookup(k), grown.Lookup(k)
		if was != is {
			moved++
			if is != "s4" {
				movedElsewhere++
			}
		}
	}
	frac := float64(moved) / float64(len(keys))
	// Expected 1/5 = 0.20; allow hashing slack but catch mod-N style
	// rings, which would move ~4/5.
	if frac > 0.30 {
		t.Errorf("adding a shard moved %.1f%% of keys (want <= ~20%%)", 100*frac)
	}
	if frac < 0.05 {
		t.Errorf("adding a shard moved only %.1f%% of keys; new shard underweighted", 100*frac)
	}
	if movedElsewhere != 0 {
		t.Errorf("%d keys moved between old shards; consistent hashing must only move keys to the new shard", movedElsewhere)
	}
}

// TestRingStabilityOnRemove: removing a shard reassigns only its keys.
func TestRingStabilityOnRemove(t *testing.T) {
	full := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	reduced := NewRing([]string{"s0", "s1", "s3"}, 0)
	for _, k := range ringKeys(20000) {
		was, is := full.Lookup(k), reduced.Lookup(k)
		if was != "s2" && was != is {
			t.Fatalf("key %q moved %s->%s though its shard survived", k, was, is)
		}
		if was == "s2" && is == "s2" {
			t.Fatalf("key %q still on removed shard", k)
		}
	}
}

func TestRingOwnershipFractions(t *testing.T) {
	r := NewRing([]string{"s0", "s1", "s2", "s3"}, 0)
	own := r.OwnershipFractions()
	var sum float64
	for s, f := range own {
		sum += f
		if f < 0.25/2 || f > 0.25*2 {
			t.Errorf("shard %s owns %.3f of the hash space (want ~0.25)", s, f)
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("ownership fractions sum to %v, want 1", sum)
	}
	// Fractions should predict observed placement to within a few points.
	counts := map[string]int{}
	keys := ringKeys(20000)
	for _, k := range keys {
		counts[r.Lookup(k)]++
	}
	for s, f := range own {
		got := float64(counts[s]) / float64(len(keys))
		if math.Abs(got-f) > 0.05 {
			t.Errorf("shard %s: ownership %.3f but observed %.3f", s, f, got)
		}
	}
}

func TestRingEmptyAndSingle(t *testing.T) {
	if got := NewRing(nil, 0).Lookup("k"); got != "" {
		t.Errorf("empty ring Lookup = %q", got)
	}
	one := NewRing([]string{"only"}, 0)
	for _, k := range ringKeys(100) {
		if one.Lookup(k) != "only" {
			t.Fatal("single-shard ring must own everything")
		}
	}
}

// TestRingPlacementPinned: the homes of fixed keys on a fixed ring, and the
// split of 2000 keys, are what every client computed when they were
// pinned. Placement is a protocol between clients and the data already
// stored: a change to the ring's hash, its vnode naming or its search
// would move keys away from the servers that hold them.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing([]string{"10.0.0.1:7100", "10.0.0.2:7100", "10.0.0.3:7100", "10.0.0.4:7100|10.0.0.5:7100"}, 0)
	for _, tc := range []struct{ key, home string }{
		{"", "10.0.0.1:7100"},
		{"a", "10.0.0.4:7100|10.0.0.5:7100"},
		{"user00000000", "10.0.0.3:7100"},
		{"user00000001", "10.0.0.1:7100"},
		{"user00000042", "10.0.0.2:7100"},
		{"replication-bench-probe", "10.0.0.3:7100"},
		{"précurseur", "10.0.0.4:7100|10.0.0.5:7100"},
		{"k", "10.0.0.1:7100"},
	} {
		if got := r.Lookup(tc.key); got != tc.home {
			t.Errorf("Lookup(%q) = %q, want %q", tc.key, got, tc.home)
		}
	}
	counts := map[string]int{}
	for _, k := range ringKeys(2000) {
		counts[r.Lookup(k)]++
	}
	want := map[string]int{"10.0.0.1:7100": 533, "10.0.0.2:7100": 468, "10.0.0.3:7100": 539, "10.0.0.4:7100|10.0.0.5:7100": 460}
	if !maps.Equal(counts, want) {
		t.Errorf("2000 keys split %v, want %v", counts, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = r.Lookup("user00000042") }); n != 0 {
		t.Errorf("Lookup allocates %.1f objects per call, want 0", n)
	}
}
