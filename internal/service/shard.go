package service

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"net/http"
)

// Shard policies for requests whose StructureKey hashes to another
// replica: proxy forwards them to the owner so its LRU stays warm for
// its slice of the keyspace; serve handles them locally and records a
// miss, for fleets that prefer an extra cold build over a hop.
const (
	shardPolicyProxy = "proxy"
	shardPolicyServe = "serve"
)

// forwardedHeader marks a request already routed once, so a fleet with
// a stale or disagreeing peer list degrades to serving locally instead
// of proxying in a loop.
const forwardedHeader = "X-Srschedd-Forwarded"

// shardRing assigns every StructureKey an owning replica by rendezvous
// (highest-random-weight) hashing: each replica scores the key against
// every peer and the highest score owns it. All replicas agree on
// ownership without coordination, and removing a peer remaps only the
// keys that peer owned.
type shardRing struct {
	peers []string
	self  string
}

func newShardRing(peers []string, self string) *shardRing {
	return &shardRing{peers: peers, self: self}
}

// mix64 is a murmur-style 64-bit finalizer. FNV alone is a poor
// rendezvous score: its last bytes (where keys that share a long
// prefix differ) get only one multiply, so the high bits that decide
// the peer comparison barely move and one peer can win nearly every
// key. The finalizer avalanches the sum so scores behave like
// independent draws per (peer, key) pair.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner returns the peer whose (peer, key) hash scores highest.
func (r *shardRing) owner(structureKey string) string {
	var best string
	var bestScore uint64
	for _, p := range r.peers {
		h := fnv.New64a()
		io.WriteString(h, p)
		h.Write([]byte{0})
		io.WriteString(h, structureKey)
		if s := mix64(h.Sum64()); best == "" || s > bestScore {
			best, bestScore = p, s
		}
	}
	return best
}

// route decides where a request over the given structure keys — one,
// or a batch's — is served. nil means here: sharding is off, the
// request was already forwarded once, the keys are ours or spread over
// several owners (a mixed batch is not split across the fleet), or the
// policy is serve; each key someone else owns is then a local miss.
// Otherwise the owner's answer (a *relayed) or the failed hop's error.
func (c *call) route(req any, keys ...string) error {
	s := c.s
	if s.ring == nil || c.r.Header.Get(forwardedHeader) != "" {
		return nil
	}
	owner, misses := s.ring.owner(keys[0]), 0
	for _, k := range keys {
		o := s.ring.owner(k)
		if o != owner {
			owner = ""
		}
		if o != s.ring.self {
			misses++
		}
	}
	if owner != "" && owner != s.ring.self && s.cfg.ShardPolicy == shardPolicyProxy {
		return s.proxy(c, owner, req)
	}
	s.metrics.add(mShardLocalMiss, int64(misses))
	return nil
}

// proxy re-sends the decoded request, under the forwarded marker and
// the same request id, and returns the owner's response as a *relayed.
// The decoded req is re-marshaled rather than replaying raw bytes: the
// body reader is already spent, and our wire types round-trip exactly.
func (s *Server) proxy(c *call, owner string, req any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	url := owner + c.r.URL.Path
	if c.r.URL.RawQuery != "" {
		url += "?" + c.r.URL.RawQuery
	}
	preq, err := http.NewRequestWithContext(c.r.Context(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(forwardedHeader, "1")
	preq.Header.Set(requestIDHeader, c.id)
	resp, err := s.httpc.Do(preq)
	if err != nil {
		return unavailable("shard: proxy to %s: %w", owner, err)
	}
	s.metrics.add(mShardProxied, 1)
	return &relayed{resp}
}
