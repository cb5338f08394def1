package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// The ring maps workload identities onto fleet nodes with a consistent
// hash: every node is placed on a uint64 circle at vnodes pseudo-random
// points (FNV-1a of "node#i"), and a key is owned by the first node point
// clockwise from the key's own hash. Each node is the home for ~1/N of
// the keyspace, and adding or removing one node remaps only ~1/N of the
// keys — the property that lets a fleet grow without invalidating every
// peer's cache. All nodes compute the same ring from the same member
// list, so routing needs no coordination service.

// ringVnodes is the virtual-node count per member: enough that a
// three-node fleet's shares stay within a few percent of 1/3 (the share
// standard deviation scales as 1/sqrt(vnodes)).
const ringVnodes = 256

// Ring is an immutable consistent-hash ring over a set of node addresses.
type Ring struct {
	nodes  int
	points []ringPoint
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds the ring from the member addresses. Members must be
// non-empty and distinct — a duplicate would silently double one node's
// keyspace share.
func NewRing(nodes []string) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("fleet: empty member list")
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{points: make([]ringPoint, 0, len(nodes)*ringVnodes)}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("fleet: empty member address")
		}
		if seen[n] {
			return nil, fmt.Errorf("fleet: duplicate member %q", n)
		}
		seen[n] = true
		r.nodes++
		for i := 0; i < ringVnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-hash collision between two nodes' vnodes is vanishingly
		// rare but must still order deterministically on every member.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node that is home for key: the first vnode clockwise
// from the key's hash.
func (r *Ring) Owner(key string) string {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
