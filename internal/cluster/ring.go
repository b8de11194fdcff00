package cluster

import (
	"fmt"
	"sort"

	"admission/internal/service"
)

// DefaultVnodes is the default number of virtual nodes per backend on the
// consistent-hash ring.
const DefaultVnodes = 64

// Ring is the deterministic consistent-hash partition of a global edge set
// over N backends: every edge hashes to a point on a ring populated by
// each backend's virtual nodes, and the first virtual node clockwise owns
// it. Router and backends derive the same Ring from the same (edge count,
// backend count, vnodes) triple — nothing about the partition is
// transmitted. Within one backend, local edge indices are the edge's rank
// in the backend's sorted owned set, so an owned global edge maps to the
// same local index everywhere.
//
// One backend is a special case: it owns every edge with local index equal
// to the global index, which is what makes a one-backend cluster
// configuration-identical (same fingerprint) to a direct engine.
type Ring struct {
	backends int
	owner    []int32 // global edge -> owning backend
	local    []int32 // global edge -> local index on the owner
	owned    [][]int // backend -> sorted owned global edges
}

// ringHash is the shared FNV-1a word hash (service.Hash) with a
// splitmix64 finalizer: no seed, no platform dependence. The finalizer
// matters here: raw FNV of short small-integer inputs clusters on the ring
// badly enough to leave backends empty at realistic sizes.
func ringHash(words ...uint64) uint64 {
	h := service.NewHash()
	for _, w := range words {
		h.Word(w)
	}
	x := h.Sum()
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewRing partitions m global edges over the given number of backends with
// vnodes virtual nodes per backend (0 means DefaultVnodes). It fails when
// the hash happens to leave a backend with no edges — every backend must
// run an engine, and an engine needs at least one edge; raise vnodes or
// use more edges per backend.
func NewRing(m, backends, vnodes int) (*Ring, error) {
	if m <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one edge, got %d", m)
	}
	if backends <= 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one backend, got %d", backends)
	}
	if vnodes == 0 {
		vnodes = DefaultVnodes
	}
	if vnodes < 0 {
		return nil, fmt.Errorf("cluster: negative vnodes %d", vnodes)
	}
	r := &Ring{
		backends: backends,
		owner:    make([]int32, m),
		local:    make([]int32, m),
		owned:    make([][]int, backends),
	}
	if backends == 1 {
		r.owned[0] = make([]int, m)
		for ge := range r.owner {
			r.local[ge] = int32(ge)
			r.owned[0][ge] = ge
		}
		return r, nil
	}

	type vnode struct {
		point   uint64
		backend int
	}
	points := make([]vnode, 0, backends*vnodes)
	for b := 0; b < backends; b++ {
		for v := 0; v < vnodes; v++ {
			points = append(points, vnode{ringHash(1, uint64(b), uint64(v)), b})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].point != points[j].point {
			return points[i].point < points[j].point
		}
		// Ties (astronomically unlikely) break deterministically.
		return points[i].backend < points[j].backend
	})
	for ge := 0; ge < m; ge++ {
		p := ringHash(2, uint64(ge))
		i := sort.Search(len(points), func(i int) bool { return points[i].point >= p })
		if i == len(points) {
			i = 0 // wrap: the ring is circular
		}
		b := points[i].backend
		r.owner[ge] = int32(b)
		r.local[ge] = int32(len(r.owned[b]))
		r.owned[b] = append(r.owned[b], ge)
	}
	for b, owned := range r.owned {
		if len(owned) == 0 {
			return nil, fmt.Errorf("cluster: backend %d owns no edges (m=%d backends=%d vnodes=%d); raise vnodes or edges",
				b, m, backends, vnodes)
		}
	}
	return r, nil
}

// Backends returns the number of backends on the ring.
func (r *Ring) Backends() int { return r.backends }

// NumEdges returns the global edge count the ring partitions.
func (r *Ring) NumEdges() int { return len(r.owner) }

// Owner returns the backend owning global edge ge.
func (r *Ring) Owner(ge int) int { return int(r.owner[ge]) }

// Local returns global edge ge's index within its owner's partition.
func (r *Ring) Local(ge int) int { return int(r.local[ge]) }

// Owned returns backend b's sorted owned global edges. The caller must
// treat it as read-only.
func (r *Ring) Owned(b int) []int { return r.owned[b] }

// Caps projects the global capacity vector onto backend b's partition:
// element i is the capacity of b's i-th owned edge — the capacity vector
// b's engine is built from.
func (r *Ring) Caps(caps []int, b int) ([]int, error) {
	if len(caps) != len(r.owner) {
		return nil, fmt.Errorf("cluster: %d capacities for a ring over %d edges", len(caps), len(r.owner))
	}
	out := make([]int, len(r.owned[b]))
	for i, ge := range r.owned[b] {
		out[i] = caps[ge]
	}
	return out, nil
}

// Group buckets global edges by owning backend as local indices: locals[j]
// holds the local edges of touched[j], with touched sorted ascending. A
// request touches few backends, so the bucketing is a linear scan over a
// short slice rather than a map — this runs once per request on the
// router's hot path.
func (r *Ring) Group(edges []int) (touched []int, locals [][]int) {
	for _, ge := range edges {
		b := int(r.owner[ge])
		j := -1
		for k := range touched {
			if touched[k] == b {
				j = k
				break
			}
		}
		if j < 0 {
			touched = append(touched, b)
			locals = append(locals, nil)
			j = len(touched) - 1
		}
		locals[j] = append(locals[j], int(r.local[ge]))
	}
	// Tandem insertion sort by backend; touched has a handful of entries.
	for i := 1; i < len(touched); i++ {
		for j := i; j > 0 && touched[j-1] > touched[j]; j-- {
			touched[j-1], touched[j] = touched[j], touched[j-1]
			locals[j-1], locals[j] = locals[j], locals[j-1]
		}
	}
	return touched, locals
}
