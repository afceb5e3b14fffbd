package cluster

import (
	"encoding/json"
	"net/http"
)

// routerShardStats is the per-shard block in the router's /v1/stats.
type routerShardStats struct {
	URL             string          `json:"url"`
	Healthy         bool            `json:"healthy"`
	Draining        bool            `json:"draining"`
	Retired         bool            `json:"retired"`
	Requests        int64           `json:"requests"`
	TransportErrors int64           `json:"transportErrors"`
	Stats           json.RawMessage `json:"stats,omitempty"` // the shard's own /v1/stats, fetched live
}

type routerStats struct {
	RingGen             uint64                      `json:"ringGen"`
	RingMembers         []string                    `json:"ringMembers"`
	Replicas            int                         `json:"replicas"`
	Keys                int                         `json:"keys"`
	Factors             int64                       `json:"factors"`
	Solves              int64                       `json:"solves"`
	Failovers           int64                       `json:"failovers"`
	Replications        int64                       `json:"replications"`
	ReplicationFailures int64                       `json:"replicationFailures"`
	ReplicationLagMs    float64                     `json:"replicationLagMs"`
	Shards              map[string]routerShardStats `json:"shards"`
}

// Stats snapshots the router, fetching each routable shard's own stats
// block live (each fetch bounded by probeTimeout).
func (rt *Router) Stats() routerStats {
	rt.mu.RLock()
	gen := rt.ring.Gen()
	members := rt.ring.Nodes()
	keys := len(rt.placements)
	lag := rt.repLagMs
	rt.mu.RUnlock()

	out := routerStats{
		RingGen:             gen,
		RingMembers:         members,
		Replicas:            rt.opt.Replicas,
		Keys:                keys,
		Factors:             rt.factors.Load(),
		Solves:              rt.solves.Load(),
		Failovers:           rt.failovers.Load(),
		Replications:        rt.repOK.Load(),
		ReplicationFailures: rt.repFail.Load(),
		ReplicationLagMs:    lag,
		Shards:              map[string]routerShardStats{},
	}
	for _, s := range rt.shardList() {
		rt.mu.RLock()
		st := routerShardStats{
			URL:             s.url,
			Healthy:         s.healthy,
			Draining:        s.draining,
			Retired:         s.retired,
			Requests:        s.requests.Load(),
			TransportErrors: s.errs.Load(),
		}
		alive := s.healthy && !s.retired
		rt.mu.RUnlock()
		if alive {
			s.requests.Add(1)
			status, b, err := rt.boundedGet(s.url + "/v1/stats")
			rt.noteResult(s, err)
			if err == nil && status == http.StatusOK && json.Valid(b) {
				st.Stats = b
			}
		}
		out.Shards[s.name] = st
	}
	return out
}

func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, rt.Stats())
}
