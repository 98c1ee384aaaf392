package server

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/schedule"
)

// Metrics is the server's expvar-style counter set. Everything is a
// plain atomic — the hot path (propose/observe) touches two or three
// counters per request and must never contend on a lock.
type Metrics struct {
	SessionsCreated    atomic.Int64
	SessionsLive       atomic.Int64
	SessionsEvicted    atomic.Int64
	SessionsRehydrated atomic.Int64
	SessionsFinished   atomic.Int64

	Requests  atomic.Int64
	Errors4xx atomic.Int64
	Errors5xx atomic.Int64
	Throttled atomic.Int64
	Conflicts atomic.Int64
	// ObsCapped counts observations rejected by Options.MaxObservations
	// (code "max_observations"; not folded into Conflicts even though
	// both are 409s — a capped session is an operator signal, not a
	// protocol hiccup).
	ObsCapped atomic.Int64

	Proposals    atomic.Int64
	Observations atomic.Int64
	Skips        atomic.Int64

	ObserveLatency Histogram
}

// latencyBucketsUS are the observe-latency histogram bucket upper
// bounds, in microseconds; the final implicit bucket is +Inf.
var latencyBucketsUS = []int64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000,
	25_000, 50_000, 100_000, 250_000,
	500_000, 1_000_000,
}

// Histogram is a fixed-bucket latency histogram with atomic counters.
type Histogram struct {
	counts [15]atomic.Int64 // len(latencyBucketsUS) + 1 overflow bucket
	sumUS  atomic.Int64
	count  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	i := 0
	for i < len(latencyBucketsUS) && us > latencyBucketsUS[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUS.Add(us)
	h.count.Add(1)
}

// histogramView is the JSON rendering of a Histogram.
type histogramView struct {
	Count   int64            `json:"count"`
	SumUS   int64            `json:"sum_us"`
	MeanUS  float64          `json:"mean_us"`
	Buckets []map[string]any `json:"buckets"`
}

func (h *Histogram) view() histogramView {
	v := histogramView{Count: h.count.Load(), SumUS: h.sumUS.Load()}
	if v.Count > 0 {
		v.MeanUS = float64(v.SumUS) / float64(v.Count)
	}
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		cum += c
		if c == 0 && i == len(latencyBucketsUS) {
			continue // drop an empty overflow bucket
		}
		b := map[string]any{"count": c, "cum": cum}
		if i < len(latencyBucketsUS) {
			b["le_us"] = latencyBucketsUS[i]
		} else {
			b["le_us"] = "inf"
		}
		v.Buckets = append(v.Buckets, b)
	}
	return v
}

// MetricsView is the GET /metrics document.
type MetricsView struct {
	Sessions struct {
		Created    int64 `json:"created"`
		Live       int64 `json:"live"`
		Evicted    int64 `json:"evicted"`
		Rehydrated int64 `json:"rehydrated"`
		Finished   int64 `json:"finished"`
	} `json:"sessions"`
	Requests struct {
		Total     int64 `json:"total"`
		Errors4xx int64 `json:"errors_4xx"`
		Errors5xx int64 `json:"errors_5xx"`
		Throttled int64 `json:"throttled"`
		Conflicts int64 `json:"conflicts"`
		ObsCapped int64 `json:"observations_capped"`
	} `json:"requests"`
	Trials struct {
		Proposals    int64 `json:"proposals"`
		Observations int64 `json:"observations"`
		Skips        int64 `json:"skips"`
	} `json:"trials"`
	ObserveLatency histogramView `json:"observe_latency"`
}

// SurrogateView is the /metrics "surrogate" section: refit-cadence
// accounting summed across every live session whose stepper exposes it
// (ROBOTune sessions that reached their BO phase, and every BOHB
// session). Unlike the atomic counters it is computed on demand by
// walking the session table — /metrics is cold-path, so the walk is
// fine.
type SurrogateView struct {
	Sessions        int     `json:"sessions"`
	SparseSessions  int     `json:"sparse_sessions"`
	HyperRefits     int     `json:"hyper_refits"`
	PosteriorRefits int     `json:"posterior_refits"`
	Extends         int     `json:"extends"`
	RefitSeconds    float64 `json:"refit_seconds"`
	Observations    int     `json:"observations"`
	// ActivePoints is the summed surrogate working-set size: the sparse
	// active set where the sparse path is on, the full history where it
	// is not. ActivePoints << Observations means the local-subset path
	// is doing its job.
	ActivePoints int `json:"active_points"`
}

// PoolView is the /metrics "pool" section: the propose-compute
// pool's slot occupancy, queue-jump count and per-class wait
// accounting. Absent when the server runs without a pool.
type PoolView struct {
	Capacity int `json:"capacity"`
	InUse    int `json:"in_use"`
	// Preemptions counts latency-over-bulk queue jumps at slot
	// hand-off.
	Preemptions int64                `json:"preemptions"`
	Classes     map[string]ClassView `json:"classes"`
}

// ClassView is one priority class's slot history.
type ClassView struct {
	Acquires    int64   `json:"acquires"`
	Waited      int64   `json:"waited"`
	WaitSeconds float64 `json:"wait_seconds"`
}

// poolView snapshots a pool (nil in, nil out).
func poolView(p *schedule.Pool) *PoolView {
	if p == nil {
		return nil
	}
	st := p.Stats()
	v := &PoolView{
		Capacity:    p.Capacity(),
		InUse:       p.InUse(),
		Preemptions: st.Preemptions,
		Classes:     make(map[string]ClassView, 2),
	}
	for _, c := range []schedule.Class{schedule.Bulk, schedule.Latency} {
		cs := st.PerClass[c]
		v.Classes[c.String()] = ClassView{
			Acquires:    cs.Acquires,
			Waited:      cs.Waited,
			WaitSeconds: cs.WaitSeconds,
		}
	}
	return v
}

// View snapshots the counters. Reads are not mutually atomic — this is
// monitoring, not accounting.
func (m *Metrics) View() MetricsView {
	var v MetricsView
	v.Sessions.Created = m.SessionsCreated.Load()
	v.Sessions.Live = m.SessionsLive.Load()
	v.Sessions.Evicted = m.SessionsEvicted.Load()
	v.Sessions.Rehydrated = m.SessionsRehydrated.Load()
	v.Sessions.Finished = m.SessionsFinished.Load()
	v.Requests.Total = m.Requests.Load()
	v.Requests.Errors4xx = m.Errors4xx.Load()
	v.Requests.Errors5xx = m.Errors5xx.Load()
	v.Requests.Throttled = m.Throttled.Load()
	v.Requests.Conflicts = m.Conflicts.Load()
	v.Requests.ObsCapped = m.ObsCapped.Load()
	v.Trials.Proposals = m.Proposals.Load()
	v.Trials.Observations = m.Observations.Load()
	v.Trials.Skips = m.Skips.Load()
	v.ObserveLatency = m.ObserveLatency.view()
	return v
}

// MarshalJSON renders the snapshot, so a *Metrics can be encoded
// directly.
func (m *Metrics) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.View())
}
