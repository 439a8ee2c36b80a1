package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// novelBody is a serve-novel-shaped /predict/batch body: an inline spec of
// a few conv blocks, ~1.5 KB.
var novelBody = func() string {
	var b strings.Builder
	b.WriteString(`{"network_spec":{"name":"nas-7-3","input_shape":[3,64,64],"layers":[`)
	for i := 0; i < 12; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"kind":"Conv2D","cin":%d,"cout":%d,"kh":3,"kw":3,"stride":1,"pad":1},{"kind":"BatchNorm"},{"kind":"ReLU"}`,
			16+i, 17+i)
	}
	b.WriteString(`]},"batches":[1,8,64,512]}`)
	return b.String()
}()

// countingServer serves h on loopback, counting the connections it accepts.
func countingServer(tb testing.TB, h http.Handler, conns *atomic.Int64) *httptest.Server {
	tb.Helper()
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	tb.Cleanup(srv.Close)
	return srv
}

// stubReplica answers every request with a fixed /predict/batch-shaped JSON
// after reading the body, counting the connections it accepts.
func stubReplica(tb testing.TB, conns *atomic.Int64) *httptest.Server {
	const answer = `{"model":"kw","gpu":"A100","network":"nas-7-3","batches":[1,8,64,512],"predicted_ms":[0.61,1.9,12.4,97.2]}` + "\n"
	return countingServer(tb, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, answer)
	}), conns)
}

// readyProxy builds an unstarted proxy (no prober, so only forwards reach
// the backends) whose replicas are all marked ready.
func readyProxy(tb testing.TB, maxInflight int, backends ...string) *Proxy {
	tb.Helper()
	p, err := New(backends, maxInflight)
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range p.replicas {
		r.ready.Store(true)
	}
	return p
}

// postOnce sends one POST through c and drains the answer.
func postOnce(c *http.Client, url, body string) (int, error) {
	resp, err := c.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// TestForwardReusesOneConnection sends 1,000 sequential requests on one
// client connection: the replica must see exactly one backend connection,
// so a pool that redials per request fails here.
func TestForwardReusesOneConnection(t *testing.T) {
	var backendConns, clientConns atomic.Int64
	stub := stubReplica(t, &backendConns)
	p := readyProxy(t, 0, strings.TrimPrefix(stub.URL, "http://"))
	front := countingServer(t, p, &clientConns)
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	for i := 0; i < 1000; i++ {
		status, err := postOnce(c, front.URL+"/predict/batch", novelBody)
		if err != nil || status != http.StatusOK {
			t.Fatalf("request %d: status %d, err %v", i, status, err)
		}
	}
	if n := clientConns.Load(); n != 1 {
		t.Fatalf("client side opened %d connections, want 1", n)
	}
	if n := backendConns.Load(); n != 1 {
		t.Fatalf("replica accepted %d backend connections for 1,000 sequential requests, want 1", n)
	}
}

// TestForwardPoolUnderConcurrency drives one replica from several clients at
// once: every answer is a 200 or an admission 429, connections are reused,
// and at most the in-flight cap of them stay idle afterwards.
func TestForwardPoolUnderConcurrency(t *testing.T) {
	for _, maxInflight := range []int{2, 256} {
		var backendConns atomic.Int64
		stub := stubReplica(t, &backendConns)
		p := readyProxy(t, maxInflight, strings.TrimPrefix(stub.URL, "http://"))
		front := httptest.NewServer(p)
		const clients, perClient = 6, 100
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
				defer tr.CloseIdleConnections()
				c := &http.Client{Transport: tr}
				for j := 0; j < perClient; j++ {
					status, err := postOnce(c, front.URL+"/predict/batch", novelBody)
					if err != nil || (status != http.StatusOK && status != http.StatusTooManyRequests) {
						t.Errorf("max-inflight %d: status %d, err %v", maxInflight, status, err)
						return
					}
				}
			}()
		}
		wg.Wait()
		front.Close()
		// Admission checks the cap before the forward counts itself, so a
		// low cap can briefly admit more, and the idle cap then closes the
		// surplus; only an uncapped pool bounds its dials by the clients.
		if n := backendConns.Load(); maxInflight >= clients && n > clients {
			t.Errorf("max-inflight %d: %d backend connections for %d clients", maxInflight, n, clients)
		}
		if n := idleConns(p.replicas[0]); n > maxInflight {
			t.Errorf("max-inflight %d: %d idle connections pooled", maxInflight, n)
		}
	}
}

// BenchmarkProxyForward measures one proxied POST /predict/batch with a
// ~1.5 KB body over loopback: client → Proxy → stub replica, keep-alive on
// both hops. ns/op and allocs/op cover all three in-process parties; the
// client and stub are fixed, so a change moves only the proxy's share. A
// diagnostic, not a gate.
func BenchmarkProxyForward(b *testing.B) {
	var conns atomic.Int64
	stub := stubReplica(b, &conns)
	front := httptest.NewServer(readyProxy(b, 0, strings.TrimPrefix(stub.URL, "http://")))
	defer front.Close()
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	body := []byte(novelBody)
	url := front.URL + "/predict/batch"
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := c.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

// FuzzForwardRequest holds writeRequest to Go's own request parser. The
// fuzzer's method, request URI, header lines and body become a raw request;
// whatever http.ReadRequest and the server's header checks accept is
// forwarded, and the bytes writeRequest emits must parse back to the same
// method, URI, end-to-end headers (same keys, same values in order), body
// and Content-Length, with X-Forwarded-For and Traceparent set as
// documented and no hop-by-hop header.
func FuzzForwardRequest(f *testing.F) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Add("POST", "/predict/batch", "Content-Type: application/json\nUser-Agent: perfbench", []byte(novelBody), false)
	f.Add("POST", "/predict/batch", "Traceparent: 00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00", []byte(`{}`), true)
	f.Add("GET", "/predict?network=resnet50&batch=8", "Accept: */*\nConnection: keep-alive, X-Gone\nTE: trailers\nX-Forwarded-For: 10.0.0.9", []byte(nil), false)
	f.Add("PUT", "/modelz", "Expect: 100-continue\nKeep-Alive: timeout=5\nUpgrade: h2c\nProxy-Connection: close\nTrailer: X-T\nx-multi: a\nX-Multi: b", []byte(`{"kind":"kw"}`), false)
	f.Add("POST", "/predict/batch", "Transfer-Encoding: chunked", []byte("3\r\nabc\r\n0\r\n\r\n"), false)
	f.Add("OPTIONS", "*", "X-Empty:", []byte(nil), true)
	f.Fuzz(func(t *testing.T, method, uri, headers string, body []byte, sampled bool) {
		var raw bytes.Buffer
		fmt.Fprintf(&raw, "%s %s HTTP/1.1\r\nHost: proxy.test\r\n", method, uri)
		for _, line := range strings.Split(headers, "\n") {
			if line != "" && !strings.Contains(line, "\r") {
				raw.WriteString(line + "\r\n")
			}
		}
		if !strings.Contains(strings.ToLower(headers), "transfer-encoding") {
			fmt.Fprintf(&raw, "Content-Length: %d\r\n", len(body))
		}
		raw.WriteString("\r\n")
		raw.Write(body)
		in, err := http.ReadRequest(bufio.NewReader(&raw))
		if err != nil {
			return
		}
		for _, vs := range in.Header {
			for _, v := range vs {
				if strings.ContainsFunc(v, func(r rune) bool { return r < ' ' && r != '\t' || r == 0x7f }) {
					return // the server answers 400 to control bytes in a value
				}
			}
		}
		if body, err = io.ReadAll(in.Body); err != nil {
			return
		}
		in.RemoteAddr = "192.0.2.7:4711"
		trace := ""
		if sampled {
			trace = tp
		}

		var wire bytes.Buffer
		bw := bufio.NewWriter(&wire)
		writeRequest(bw, in, "10.0.0.1:8080", body, trace)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		emitted := wire.String()
		br := bufio.NewReader(&wire)
		out, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("forwarded request does not parse: %v\n%q", err, emitted)
		}
		if out.Method != in.Method || out.RequestURI != in.URL.RequestURI() || out.Host != "10.0.0.1:8080" {
			t.Fatalf("request line %s %s Host %s, want %s %s Host 10.0.0.1:8080\n%q",
				out.Method, out.RequestURI, out.Host, in.Method, in.URL.RequestURI(), emitted)
		}
		got, err := io.ReadAll(out.Body)
		if err != nil || !bytes.Equal(got, body) || out.ContentLength != int64(len(body)) {
			t.Fatalf("body %q (Content-Length %d, err %v), want %q\n%q", got, out.ContentLength, err, body, emitted)
		}
		if rest, _ := br.Peek(1); len(rest) != 0 {
			t.Fatalf("bytes after the forwarded request\n%q", emitted)
		}
		set := map[string]bool{"Host": true, "Content-Length": true, "X-Forwarded-For": true, obs.TraceparentHeader: sampled}
		for k, vs := range in.Header {
			if hopByHop(k) || set[k] {
				continue
			}
			if !slices.Equal(out.Header[k], vs) {
				t.Fatalf("header %s = %q, want %q\n%q", k, out.Header[k], vs, emitted)
			}
		}
		for k := range out.Header {
			if hopByHop(k) {
				t.Fatalf("hop-by-hop header %s forwarded\n%q", k, emitted)
			}
			if _, ok := in.Header[k]; !ok && k != "X-Forwarded-For" && k != "Content-Length" && !(sampled && k == obs.TraceparentHeader) {
				t.Fatalf("header %s appeared in forwarding\n%q", k, emitted)
			}
		}
		if xff := out.Header["X-Forwarded-For"]; !slices.Equal(xff, []string{in.RemoteAddr}) {
			t.Fatalf("X-Forwarded-For = %q, want [%s]", xff, in.RemoteAddr)
		}
		if sampled && !slices.Equal(out.Header[obs.TraceparentHeader], []string{tp}) {
			t.Fatalf("Traceparent = %q, want [%s]", out.Header[obs.TraceparentHeader], tp)
		}
	})
}
