package diag

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"redundancy/internal/obs"
)

// TestServeRoutes: a listener on an ephemeral port serves the registry's
// Prometheus text on /metrics and the pprof index under /debug/pprof/,
// and an empty address serves nothing.
func TestServeRoutes(t *testing.T) {
	if bound, err := Serve("", nil, false); bound != "" || err != nil {
		t.Fatalf(`Serve("") = %q, %v; want "", nil`, bound, err)
	}
	reg := obs.NewRegistry()
	reg.Counter("diag_probe_total", "a counter the test reads back").Inc()
	bound, err := Serve("127.0.0.1:0", reg, false)
	if err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{
		"/metrics":      "diag_probe_total 1",
		"/debug/pprof/": "goroutine",
	} {
		resp, err := http.Get("http://" + bound + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
			t.Errorf("GET %s: status %d, body without %q", path, resp.StatusCode, want)
		}
	}
}
