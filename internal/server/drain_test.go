package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDrainFlipsReadyzAndShedsWork(t *testing.T) {
	s, ts := newTestServer(t, Config{CoalesceTick: 0})
	s.BeginDrain()
	if resp := getJSON(t, ts, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}
	if resp := getJSON(t, ts, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200 (process is alive)", resp.StatusCode)
	}
	a, b, c := testTriple(t, 20, 20)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)
	if resp := postJSON(t, ts, "/v1/align", body, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("align during drain = %d, want 503", resp.StatusCode)
	}
	if resp := postJSON(t, ts, "/v1/align/batch", `{"items":[`+body+`]}`, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("batch during drain = %d, want 503", resp.StatusCode)
	}
	var st Statsz
	getJSON(t, ts, "/statsz", &st)
	if !st.Draining {
		t.Errorf("statsz draining = false during drain")
	}
}

// TestDrainInFlightCompletes exercises the drain contract under -race:
// requests already admitted finish with 200 even though BeginDrain flips
// readiness mid-flight. The request runs the seven-state linear-space
// kernel — tens of milliseconds at n=80, an order of magnitude past the
// admission pause below — so it is still in flight when the drain lands;
// with the default scheme's zero gap-open cost it returns the linear-gap
// optimum.
func TestDrainInFlightCompletes(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, CoalesceTick: 0})
	a, b, c := testTriple(t, 21, 80)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q,"algorithm":"affine-linear"}`, a, b, c)

	started := make(chan struct{})
	var wg sync.WaitGroup
	var status int
	var out AlignResponse
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
	}()
	<-started
	time.Sleep(5 * time.Millisecond) // let the request pass admission
	s.BeginDrain()
	wg.Wait()
	if status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status %d, want 200", status)
	}
	if want := directScore(t, a, b, c); out.Score != want {
		t.Errorf("score = %d, want %d", out.Score, want)
	}
}

// TestDrainCoalescedFlush pins Close's guarantee for the coalesced path:
// requests buffered in the coalescer when drain begins are flushed and
// answered, not dropped.
func TestDrainCoalescedFlush(t *testing.T) {
	// A one-minute tick never fires during the test; only Close's flush
	// can answer the buffered requests.
	s := New(Config{CoalesceTick: time.Minute, Workers: 2})
	ts := newFrontend(t, s)
	a, b, c := testTriple(t, 22, 25)
	body := fmt.Sprintf(`{"a":%q,"b":%q,"c":%q}`, a, b, c)

	const reqs = 3
	codes := make([]int, reqs)
	scores := make([]int32, reqs)
	var wg sync.WaitGroup
	for i := 0; i < reqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/align", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("req %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			var out AlignResponse
			json.NewDecoder(resp.Body).Decode(&out) //nolint:errcheck
			scores[i] = out.Score
		}(i)
	}
	// Wait until all requests are parked in the coalescer buffer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.coal.mu.Lock()
		n := len(s.coal.buf)
		s.coal.mu.Unlock()
		if n == reqs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the coalescer buffer", n, reqs)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	want := directScore(t, a, b, c)
	for i := 0; i < reqs; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("req %d: status %d, want 200", i, codes[i])
		}
		if scores[i] != want {
			t.Errorf("req %d: score %d, want %d", i, scores[i], want)
		}
	}
}

// newFrontend wires an httptest server for tests that manage s.Close
// themselves.
func newFrontend(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}
