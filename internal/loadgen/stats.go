package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"rnuca/internal/obs"
	"rnuca/internal/report"
)

// ServerStats is the slice of GET /v1/stats the client compares
// against: per-kind windowed latency plus the saturation gauges.
type ServerStats struct {
	WindowSeconds float64 `json:"window_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	Inflight      int     `json:"inflight"`
	Jobs          map[string]struct {
		Latency serverLatency `json:"latency"`
	} `json:"jobs"`
	Ledger struct {
		Submitted uint64 `json:"submitted"`
		Completed uint64 `json:"completed"`
		Failed    uint64 `json:"failed"`
		Throttled uint64 `json:"throttled"`
	} `json:"ledger"`
}

type serverLatency struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean_seconds"`
	Min   float64 `json:"min_seconds"`
	Max   float64 `json:"max_seconds"`
	P50   float64 `json:"p50_seconds"`
	P90   float64 `json:"p90_seconds"`
	P95   float64 `json:"p95_seconds"`
	P99   float64 `json:"p99_seconds"`
}

// Kind converts one server-side kind's latency to a snapshot, the
// shape CompareTable consumes. ok is false for a kind the server has
// no window for.
func (s ServerStats) Kind(kind string) (obs.Snapshot, bool) {
	k, ok := s.Jobs[kind]
	return obs.Snapshot(k.Latency), ok
}

// FetchServerStats reads GET /v1/stats. A nil client means
// http.DefaultClient.
func FetchServerStats(ctx context.Context, client *http.Client, baseURL string) (ServerStats, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return ServerStats{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return ServerStats{}, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ServerStats{}, fmt.Errorf("loadgen: /v1/stats returned %d", resp.StatusCode)
	}
	var st ServerStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return ServerStats{}, fmt.Errorf("loadgen: decoding /v1/stats: %w", err)
	}
	return st, nil
}

// CompareTable renders the client-vs-server latency comparison: each
// row one statistic, in milliseconds, with the delta the client felt
// on top of what the server measured (network, polling granularity,
// and scheduling — the gap a server-side-only view never sees).
func CompareTable(client, server obs.Snapshot) *report.Table {
	t := report.NewTable("Latency: client vs server (ms)",
		"stat", "client", "server", "delta")
	row := func(name string, c, s float64) {
		t.AddRow(name,
			fmt.Sprintf("%.2f", c*1e3),
			fmt.Sprintf("%.2f", s*1e3),
			fmt.Sprintf("%+.2f", (c-s)*1e3))
	}
	t.AddRow("count",
		fmt.Sprintf("%d", client.Count),
		fmt.Sprintf("%d", server.Count),
		fmt.Sprintf("%+d", int64(client.Count)-int64(server.Count)))
	row("mean", client.Mean, server.Mean)
	row("p50", client.P50, server.P50)
	row("p90", client.P90, server.P90)
	row("p95", client.P95, server.P95)
	row("p99", client.P99, server.P99)
	row("max", client.Max, server.Max)
	return t
}

// MixTable renders the client-side per-mix latency summary.
func MixTable(latency map[string]obs.Snapshot) *report.Table {
	t := report.NewTable("Client latency by mix (ms)",
		"mix", "count", "mean", "p50", "p90", "p99", "max")
	for _, kind := range []string{"all", MixCached, MixCold, MixCompare, MixReplay} {
		s, ok := latency[kind]
		if !ok {
			continue
		}
		t.AddRow(kind,
			fmt.Sprintf("%d", s.Count),
			fmt.Sprintf("%.2f", s.Mean*1e3),
			fmt.Sprintf("%.2f", s.P50*1e3),
			fmt.Sprintf("%.2f", s.P90*1e3),
			fmt.Sprintf("%.2f", s.P99*1e3),
			fmt.Sprintf("%.2f", s.Max*1e3))
	}
	return t
}
