package fleet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Fault injection: replicas that hang, reset, truncate bodies, drop idle
// keep-alive connections, send interim responses or flap /readyz, driven
// through the proxy. Every subtest closes its servers in its own cleanup,
// so once they have all run the process must be back to the goroutines it
// started with.

// rawReplica is a replica written straight on a net.Listener, for faults an
// http.Server will not commit. Each connection reads one request, counts
// it, hands the connection to fault, and is closed.
type rawReplica struct {
	ln       net.Listener
	requests atomic.Int64
}

func newRawReplica(t *testing.T, fault func(c net.Conn)) *rawReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &rawReplica{ln: ln}
	var wg sync.WaitGroup
	t.Cleanup(func() { ln.Close(); wg.Wait() })
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				req, err := http.ReadRequest(bufio.NewReader(c))
				if err != nil {
					return
				}
				_, _ = io.Copy(io.Discard, req.Body)
				r.requests.Add(1)
				fault(c)
			}()
		}
	}()
	return r
}

func (r *rawReplica) addr() string { return r.ln.Addr().String() }

// resetAfterRequest answers with a TCP reset.
func resetAfterRequest(c net.Conn) { _ = c.(*net.TCPConn).SetLinger(0) }

// countingReplica is a healthy httptest replica that counts the requests it
// serves and the connections it accepts; handle, if set, replaces its
// answer.
type countingReplica struct {
	srv    *httptest.Server
	served atomic.Int64
	conns  atomic.Int64
}

func newCountingReplica(t *testing.T, handle http.HandlerFunc) *countingReplica {
	t.Helper()
	r := &countingReplica{}
	r.srv = countingServer(t, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		_, _ = io.Copy(io.Discard, req.Body)
		r.served.Add(1)
		if handle != nil {
			handle(w, req)
			return
		}
		io.WriteString(w, "ok")
	}), &r.conns)
	return r
}

func (r *countingReplica) addr() string { return strings.TrimPrefix(r.srv.URL, "http://") }

// frontFor serves p and returns a client with its own keep-alive pool.
func frontFor(t *testing.T, p *Proxy) (*httptest.Server, *http.Client) {
	t.Helper()
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	tr := &http.Transport{DisableCompression: true}
	t.Cleanup(tr.CloseIdleConnections)
	return front, &http.Client{Transport: tr, Timeout: 10 * time.Second}
}

// getStatus sends GET /predict?network=name and returns status and body.
func getStatus(t *testing.T, c *http.Client, base, name string) (int, string) {
	t.Helper()
	resp, err := c.Get(base + "/predict?network=" + name)
	if err != nil {
		t.Fatalf("GET network=%s: %v", name, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET network=%s: reading body: %v", name, err)
	}
	return resp.StatusCode, string(b)
}

// ownedBy returns a network name whose ring walk starts at addr.
func ownedBy(t *testing.T, p *Proxy, addr string) string {
	t.Helper()
	for i := 0; i < 1<<16; i++ {
		name := fmt.Sprintf("owned-%d", i)
		if p.replicas[p.owners(fnv64(name))[0]].addr == addr {
			return name
		}
	}
	t.Fatalf("no key owned by %s", addr)
	return ""
}

func replicaAt(p *Proxy, addr string) *replica {
	for _, r := range p.replicas {
		if r.addr == addr {
			return r
		}
	}
	return nil
}

// idleConns reports how many keep-alive connections the proxy holds to r.
func idleConns(r *replica) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.idle)
}

func TestFaults(t *testing.T) {
	baseline := runtime.NumGoroutine()

	t.Run("hang-past-timeout", func(t *testing.T) {
		// The first request is answered, so the hang lands on a pooled
		// connection: a timeout there is not a stale connection, and must
		// not be redialed.
		var n atomic.Int64
		hang := newCountingReplica(t, func(w http.ResponseWriter, req *http.Request) {
			if n.Add(1) == 1 {
				io.WriteString(w, "hang")
				return
			}
			select {
			case <-req.Context().Done():
			case <-time.After(5 * time.Second):
			}
		})
		healthy := newCountingReplica(t, nil)
		const timeout = 150 * time.Millisecond
		p := readyProxy(t, 0, hang.addr(), healthy.addr())
		p.timeout = timeout
		front, c := frontFor(t, p)
		name := ownedBy(t, p, hang.addr())
		if status, body := getStatus(t, c, front.URL, name); status != http.StatusOK || body != "hang" {
			t.Fatalf("first request: %d %q, want 200 from the replica that hangs later", status, body)
		}
		start := time.Now()
		if status, body := getStatus(t, c, front.URL, name); status != http.StatusOK || body != "ok" {
			t.Fatalf("hung owner: %d %q, want 200 from the healthy replica", status, body)
		}
		if el := time.Since(start); el < timeout {
			t.Fatalf("answered in %v, before the %v timeout could fire", el, timeout)
		}
		if got := hang.served.Load(); got != 2 {
			t.Fatalf("hanging replica saw %d requests, want 2 (a timeout is not redialed)", got)
		}
		if replicaAt(p, hang.addr()).ready.Load() {
			t.Fatal("hanging replica still ready after its timeout")
		}
	})

	t.Run("reset-after-request", func(t *testing.T) {
		reset := newRawReplica(t, resetAfterRequest)
		healthy := newCountingReplica(t, nil)
		p := readyProxy(t, 0, reset.addr(), healthy.addr())
		front, c := frontFor(t, p)
		name := ownedBy(t, p, reset.addr())
		for i := 0; i < 5; i++ {
			replicaAt(p, reset.addr()).ready.Store(true)
			if status, body := getStatus(t, c, front.URL, name); status != http.StatusOK || body != "ok" {
				t.Fatalf("request %d: %d %q, want 200 from the healthy replica", i, status, body)
			}
		}
		if got := reset.requests.Load(); got != 5 {
			t.Fatalf("resetting replica read %d requests, want 5", got)
		}
	})

	for _, tc := range []struct{ name, answer string }{
		{"truncated-length", "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n" + strings.Repeat("x", 40)},
		{"truncated-chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n28\r\n" + strings.Repeat("x", 40) + "\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trunc := newRawReplica(t, func(c net.Conn) { io.WriteString(c, tc.answer) })
			p := readyProxy(t, 0, trunc.addr())
			front, c := frontFor(t, p)
			for i := 0; i < 3; i++ {
				resp, err := c.Get(front.URL + "/predict?network=n")
				if err == nil {
					b, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					if rerr == nil {
						t.Fatalf("request %d: truncated body reached the client as a complete %d (%d bytes)",
							i, resp.StatusCode, len(b))
					}
				}
				if n := idleConns(p.replicas[0]); n != 0 {
					t.Fatalf("request %d: %d connections pooled after a truncated body", i, n)
				}
			}
		})
	}

	t.Run("stale-idle-connection", func(t *testing.T) {
		r := newCountingReplica(t, nil)
		p := readyProxy(t, 0, r.addr())
		front, c := frontFor(t, p)
		const rounds = 20
		for i := 0; i < rounds; i++ {
			if status, body := getStatus(t, c, front.URL, "n"); status != http.StatusOK || body != "ok" {
				t.Fatalf("round %d: %d %q, want 200", i, status, body)
			}
			if !p.replicas[0].ready.Load() {
				t.Fatalf("round %d: replica marked unready by a stale pooled connection", i)
			}
			r.srv.CloseClientConnections() // the pool now holds a dead connection
		}
		if got := r.served.Load(); got != rounds {
			t.Fatalf("replica served %d requests for %d rounds", got, rounds)
		}
		if got := r.conns.Load(); got != rounds {
			t.Fatalf("replica accepted %d connections for %d rounds", got, rounds)
		}
	})

	t.Run("interim-1xx", func(t *testing.T) {
		r := newCountingReplica(t, func(w http.ResponseWriter, req *http.Request) {
			w.WriteHeader(http.StatusContinue)
			w.WriteHeader(http.StatusEarlyHints)
			io.WriteString(w, "final")
		})
		p := readyProxy(t, 0, r.addr())
		front, c := frontFor(t, p)
		for i := 0; i < 3; i++ {
			if status, body := getStatus(t, c, front.URL, "n"); status != http.StatusOK || body != "final" {
				t.Fatalf("request %d: %d %q, want 200 \"final\"", i, status, body)
			}
		}
		if got := r.conns.Load(); got != 1 {
			t.Fatalf("replica accepted %d connections, want 1 (pooled across interim responses)", got)
		}
	})

	t.Run("client-disconnect", func(t *testing.T) {
		done := make(chan time.Time, 1)
		r := newCountingReplica(t, func(w http.ResponseWriter, req *http.Request) {
			select {
			case <-req.Context().Done():
			case <-time.After(5 * time.Second):
			}
			done <- time.Now()
		})
		p := readyProxy(t, 0, r.addr())
		front, c := frontFor(t, p)
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+"/predict?network=n", nil)
		start := time.Now()
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			t.Fatal("request answered although the client gave up")
		}
		if el := (<-done).Sub(start); el > 3*time.Second {
			t.Fatalf("replica kept the abandoned request for %v", el)
		}
		if !p.replicas[0].ready.Load() {
			t.Fatal("a client disconnect marked the replica unready")
		}
	})

	t.Run("readyz-flap", func(t *testing.T) {
		var probes atomic.Int64
		flap := newCountingReplica(t, func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Path == "/readyz" {
				if probes.Add(1)%2 == 0 {
					w.WriteHeader(http.StatusServiceUnavailable)
				}
				return
			}
			io.WriteString(w, "flap")
		})
		steady := newCountingReplica(t, nil)
		p, err := New([]string{flap.addr(), steady.addr()}, 0)
		if err != nil {
			t.Fatal(err)
		}
		// Probe every 2 ms beside the traffic, so readiness flips while
		// requests are in flight.
		p.probeAll()
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					p.probeAll()
				}
			}
		}()
		t.Cleanup(func() { close(stop); wg.Wait() })
		front, c := frontFor(t, p)
		for i := 0; i < 300; i++ {
			if status, body := getStatus(t, c, front.URL, fmt.Sprintf("n-%d", i)); status >= 500 {
				t.Fatalf("request %d: %d %q while a steady replica was ready", i, status, body)
			}
		}
		if probes.Load() < 4 {
			t.Fatalf("only %d probes during the run; readiness did not flap", probes.Load())
		}
	})

	t.Run("attempts-bounded", func(t *testing.T) {
		reps := make([]*rawReplica, 4)
		addrs := make([]string, len(reps))
		for i := range reps {
			reps[i] = newRawReplica(t, resetAfterRequest)
			addrs[i] = reps[i].addr()
		}
		p := readyProxy(t, 0, addrs...)
		front, c := frontFor(t, p)
		for i := 0; i < 4; i++ {
			before := int64(0)
			for _, r := range reps {
				before += r.requests.Load()
			}
			for _, r := range p.replicas {
				r.ready.Store(true)
			}
			if status, _ := getStatus(t, c, front.URL, fmt.Sprintf("n-%d", i)); status != http.StatusBadGateway {
				t.Fatalf("request %d: status %d, want 502", i, status)
			}
			after := int64(0)
			for _, r := range reps {
				after += r.requests.Load()
			}
			if got := after - before; got > 1+maxRetries {
				t.Fatalf("request %d: %d forward attempts, want at most %d", i, got, 1+maxRetries)
			}
		}
	})

	t.Run("status-order", func(t *testing.T) {
		failing := newRawReplica(t, resetAfterRequest)
		a := newCountingReplica(t, nil)
		b := newCountingReplica(t, nil)
		cases := []struct {
			name      string
			addrs     []string
			ready     []bool
			saturated []bool
			want      int
		}{
			{"every attempted forward failed", []string{failing.addr()}, []bool{true}, []bool{false}, http.StatusBadGateway},
			{"a failed attempt beats saturation", []string{failing.addr(), a.addr()}, []bool{true, true}, []bool{false, true}, http.StatusBadGateway},
			{"all ready replicas saturated", []string{a.addr(), b.addr()}, []bool{true, true}, []bool{true, true}, http.StatusTooManyRequests},
			{"saturation beats unready", []string{a.addr(), b.addr()}, []bool{true, false}, []bool{true, false}, http.StatusTooManyRequests},
			{"no replica ready", []string{a.addr(), b.addr()}, []bool{false, false}, []bool{false, false}, http.StatusServiceUnavailable},
		}
		for _, tc := range cases {
			p := readyProxy(t, 1, tc.addrs...)
			for i, addr := range tc.addrs {
				r := replicaAt(p, addr)
				r.ready.Store(tc.ready[i])
				if tc.saturated[i] {
					r.inflight.Store(1)
				}
			}
			front, c := frontFor(t, p)
			resp, err := c.Get(front.URL + "/predict?network=n")
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
			}
			if tc.want == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
				t.Fatalf("%s: 429 without Retry-After", tc.name)
			}
		}
	})

	// Every subtest's servers, proxies and clients are closed now.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("%d goroutines after the fault tests, %d before:\n%s", runtime.NumGoroutine(), baseline, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
