package simjob

import (
	"context"
	"hash/fnv"
	"sort"
	"time"

	"bow/internal/trace"
)

// Peer-to-peer cache fill: a worker that misses its own cache for a
// spec hash asks sibling workers (Options.Peers) for their cached
// result before paying for a simulation. Peers serve verified
// content-hash envelopes on GET /result/{hash} straight out of their
// own cache tiers, so a result computed once anywhere in the fleet is
// computed once, full stop — re-routed retries, failover resubmissions,
// and overlapping sweeps all fill from the first holder.
//
// Probe order is rendezvous (highest-random-weight) hashing over
// (peer, spec hash): every worker ranks the same peers in the same
// order for a given hash, so the fleet converges on asking the likely
// holder first instead of spraying requests.

// defaultPeerTimeout bounds each peer probe. A fill is an optimization;
// a slow peer must cost less than the simulation it would save.
const defaultPeerTimeout = 2 * time.Second

// rankPeers orders clients by descending fnv64a(peer base || hash) —
// rendezvous hashing, stable across the fleet for a given hash.
func rankPeers(peers []*Client, hash string) []*Client {
	type scored struct {
		c *Client
		w uint64
	}
	ranked := make([]scored, len(peers))
	for i, p := range peers {
		h := fnv.New64a()
		h.Write([]byte(p.Base()))
		h.Write([]byte{0})
		h.Write([]byte(hash))
		ranked[i] = scored{c: p, w: h.Sum64()}
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].w > ranked[j].w })
	out := make([]*Client, len(peers))
	for i, s := range ranked {
		out[i] = s.c
	}
	return out
}

// fetchPeer tries to satisfy j from the peer fleet. It returns a
// summary-level outcome on the first verified hit, nil when no peer has
// the result (or peers are not configured, or a waiter needs the full
// simulator result — peers only ever hold summaries). The caller
// re-checks j.needFull under e.mu before resolving tickets with the
// returned outcome: a SubmitFull waiter may join while the probe is in
// flight.
func (e *Engine) fetchPeer(j *job) *Outcome {
	if len(e.peers) == 0 {
		return nil
	}
	e.mu.Lock()
	needFull := j.needFull
	e.mu.Unlock()
	if needFull {
		return nil
	}
	start := time.Now()
	for _, pc := range rankPeers(e.peers, j.hash) {
		ctx, cancel := context.WithTimeout(j.ctx, e.peerTimeout())
		sum, ok, err := pc.Result(ctx, j.hash)
		cancel()
		if err != nil || !ok {
			continue
		}
		out := summaryOutcome(j.hash, sum, "peer")
		// Adopt the result into our own cache so the next local lookup
		// (and the next peer asking us) is a direct hit.
		_ = e.cache.Put(out)
		e.spans.Record(trace.Span{
			TraceID:     j.traceID,
			Hop:         trace.HopEngine,
			Stage:       trace.StagePeerFill,
			Job:         j.hash,
			StartMicros: start.UnixMicro(),
			DurMicros:   time.Since(start).Microseconds(),
		})
		return out
	}
	e.mu.Lock()
	e.peerMisses++
	e.mu.Unlock()
	span := trace.Span{
		TraceID:     j.traceID,
		Hop:         trace.HopEngine,
		Stage:       trace.StagePeerFill,
		Job:         j.hash,
		StartMicros: start.UnixMicro(),
		DurMicros:   time.Since(start).Microseconds(),
		Err:         "miss",
	}
	e.spans.Record(span)
	return nil
}

func (e *Engine) peerTimeout() time.Duration {
	if e.opts.PeerTimeout > 0 {
		return e.opts.PeerTimeout
	}
	return defaultPeerTimeout
}
