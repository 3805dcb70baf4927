package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"rnuca/internal/obs"
	"rnuca/internal/report"
	"rnuca/internal/serve"
)

// FetchServerStats reads GET /v1/stats into the server's own response
// type. A nil client means http.DefaultClient.
func FetchServerStats(ctx context.Context, client *http.Client, baseURL string) (serve.StatsResponse, error) {
	if client == nil {
		client = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+"/v1/stats", nil)
	if err != nil {
		return serve.StatsResponse{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return serve.StatsResponse{}, err
	}
	defer drain(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return serve.StatsResponse{}, fmt.Errorf("loadgen: /v1/stats returned %d", resp.StatusCode)
	}
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.StatsResponse{}, fmt.Errorf("loadgen: decoding /v1/stats: %w", err)
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
