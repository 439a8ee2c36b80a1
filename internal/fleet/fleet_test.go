package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeReplica is an httptest stand-in for a dnnperf serve process: it
// answers /readyz like a warmed replica and tags every other response with
// its own name so tests can observe routing.
type fakeReplica struct {
	name    string
	srv     *httptest.Server
	mu      sync.Mutex
	served  map[string]int // shard key (network) -> count
	handler http.HandlerFunc
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name, served: map[string]int{}}
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"ready":true,"model_version":7}`)
			return
		}
		f.mu.Lock()
		f.served[r.URL.Query().Get("network")]++
		f.mu.Unlock()
		if f.handler != nil {
			f.handler(w, r)
			return
		}
		w.Header().Set("X-Replica-Name", f.name)
		fmt.Fprint(w, f.name)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeReplica) count(network string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.served[network]
}

// startProxy builds a started proxy over the replicas and an httptest
// front-end serving it.
func startProxy(t *testing.T, maxInflight int, reps ...*fakeReplica) (*Proxy, *httptest.Server) {
	t.Helper()
	p := newProxy(t, maxInflight, reps)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(func() { cancel(); p.Wait() })
	p.Start(ctx)
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

// probedProxy is startProxy without the prober: readiness comes from one
// probe, so no later probe can mark a replica the test closes unready
// before the request under test reaches it.
func probedProxy(t *testing.T, maxInflight int, reps ...*fakeReplica) (*Proxy, *httptest.Server) {
	t.Helper()
	p := newProxy(t, maxInflight, reps)
	p.probeAll()
	front := httptest.NewServer(p)
	t.Cleanup(front.Close)
	return p, front
}

func newProxy(t *testing.T, maxInflight int, reps []*fakeReplica) *Proxy {
	t.Helper()
	addrs := make([]string, len(reps))
	for i, r := range reps {
		addrs[i] = r.addr()
	}
	p, err := New(addrs, maxInflight)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// ownerOf returns the ready ring owner's address for a network name: the
// replica a /predict?network=name request will be forwarded to.
func ownerOf(p *Proxy, network string) (string, bool) {
	for _, idx := range p.owners(fnv64(network)) {
		if r := p.replicas[idx]; r.ready.Load() {
			return r.addr, true
		}
	}
	return "", false
}

func TestShardingIsDeterministicAndSpreads(t *testing.T) {
	reps := []*fakeReplica{
		newFakeReplica(t, "r0"), newFakeReplica(t, "r1"),
		newFakeReplica(t, "r2"), newFakeReplica(t, "r3"),
	}
	p, front := startProxy(t, 0, reps...)

	// The same network always lands on its ring owner.
	owner, ok := ownerOf(p, "resnet50")
	if !ok {
		t.Fatal("no ready owner for resnet50")
	}
	var ownerName string
	for i := 0; i < 10; i++ {
		status, body := get(t, front.URL+"/predict?network=resnet50&batch=8")
		if status != http.StatusOK {
			t.Fatalf("status %d", status)
		}
		if ownerName == "" {
			ownerName = body
		} else if body != ownerName {
			t.Fatalf("request %d landed on %q, earlier ones on %q", i, body, ownerName)
		}
	}
	for _, r := range reps {
		if r.addr() == owner && r.count("resnet50") != 10 {
			t.Fatalf("ring owner %s served %d of 10 requests", owner, r.count("resnet50"))
		}
	}

	// Distinct networks spread across more than one replica.
	hit := map[string]bool{}
	for i := 0; i < 32; i++ {
		_, body := get(t, fmt.Sprintf("%s/predict?network=net-%d&batch=1", front.URL, i))
		hit[body] = true
	}
	if len(hit) < 2 {
		t.Fatalf("32 distinct networks all routed to one replica: %v", hit)
	}
}

func TestShardKeyFromPOSTBody(t *testing.T) {
	body := []byte(`{"network": "bert-large", "batches": [1, 8]}`)
	req, _ := http.NewRequest(http.MethodPost, "http://x/predict/batch", nil)
	if got, want := shardKey(req, body), fnv64("bert-large"); got != want {
		t.Fatalf("POST body shard key = %d, want fnv(network)=%d", got, want)
	}
	// Query param wins over the body when both exist.
	req, _ = http.NewRequest(http.MethodPost, "http://x/predict?network=vgg16", nil)
	if got, want := shardKey(req, body), fnv64("vgg16"); got != want {
		t.Fatalf("query-vs-body precedence: got %d, want %d", got, want)
	}
	// No network anywhere: whole-body hash, still deterministic.
	raw := []byte(`{"layers": [1, 2, 3]}`)
	req, _ = http.NewRequest(http.MethodPost, "http://x/predict/batch", nil)
	if shardKey(req, raw) != shardKey(req, raw) {
		t.Fatal("body hash not deterministic")
	}
}

// TestShardKeyBareNetworkFirst: the shard key reads ?network= as the
// replica's handlers do, so a bare network pair ahead of a valued one names
// no network (url.ParseQuery's first value is ""), and the request routes by
// its body or path like any request without one.
func TestShardKeyBareNetworkFirst(t *testing.T) {
	body := []byte(`{"network": "bert-large"}`)
	for _, c := range []struct {
		query string
		body  []byte
		want  uint64
	}{
		{"network&network=resnet50", nil, fnv64("/predict")},
		{"network&network=resnet50", body, fnv64("bert-large")},
		{"batch=8&network&network=resnet50", nil, fnv64("/predict")},
	} {
		req := &http.Request{Method: http.MethodGet, URL: &url.URL{Path: "/predict", RawQuery: c.query}}
		if got := shardKey(req, c.body); got != c.want {
			t.Errorf("shardKey(%q, %q) = %d, want %d", c.query, c.body, got, c.want)
		}
	}
}

func TestHealthAwareRerouting(t *testing.T) {
	r0 := newFakeReplica(t, "r0")
	r1 := newFakeReplica(t, "r1")
	p, front := startProxy(t, 0, r0, r1)

	// Find a network owned by r0 so its death forces rerouting.
	var net string
	for i := 0; ; i++ {
		cand := fmt.Sprintf("owned-%d", i)
		if owner, ok := ownerOf(p, cand); ok && owner == r0.addr() {
			net = cand
			break
		}
	}
	if status, body := get(t, front.URL+"/predict?network="+net); status != http.StatusOK || body != "r0" {
		t.Fatalf("pre-kill: status=%d body=%q, want 200 r0", status, body)
	}

	r0.srv.Close() // replica dies

	// The very next request must still succeed: the refused connection is
	// retried against the ring successor without waiting for the prober.
	if status, body := get(t, front.URL+"/predict?network="+net); status != http.StatusOK || body != "r1" {
		t.Fatalf("post-kill: status=%d body=%q, want 200 r1", status, body)
	}

	// A probe then keeps r0 out of the ready set.
	p.probeAll()
	if owner, ok := ownerOf(p, net); !ok || owner != r1.addr() {
		t.Fatalf("owner after death = %q (ok=%t), want %s", owner, ok, r1.addr())
	}
}

func TestAdmissionControl429(t *testing.T) {
	release := make(chan struct{})
	slow := newFakeReplica(t, "slow")
	slow.handler = func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.WriteHeader(http.StatusOK)
	}
	_, front := startProxy(t, 1, slow)

	// Occupy the only in-flight slot.
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Get(front.URL + "/predict?network=a")
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Wait until the first request is held inside the replica.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if slow.count("a") == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first request never reached the replica")
		}
		time.Sleep(time.Millisecond)
	}

	// Second request: the only ready replica is at its cap → shed with 429.
	resp, err := http.Get(front.URL + "/predict?network=b")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}

	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
}

func TestRetryOnRefusedIsBounded(t *testing.T) {
	// A listener that is closed immediately: connections are refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	alive := newFakeReplica(t, "alive")
	p, err := New([]string{deadAddr, alive.addr()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Force both "ready" so the dead one is actually attempted.
	for _, r := range p.replicas {
		r.ready.Store(true)
	}
	front := httptest.NewServer(p)
	defer front.Close()

	// Whatever the ring owner is, every request must end on the live
	// replica via the bounded retry walk.
	for i := 0; i < 8; i++ {
		status, body := get(t, fmt.Sprintf("%s/predict?network=n-%d", front.URL, i))
		if status != http.StatusOK || body != "alive" {
			t.Fatalf("request %d: status=%d body=%q", i, status, body)
		}
		p.replicas[0].ready.Store(true) // resurrect for the next round
	}
}

func TestNoReadyReplicas503(t *testing.T) {
	r0 := newFakeReplica(t, "r0")
	p, err := New([]string{r0.addr()}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Never started, never probed: nothing is ready.
	front := httptest.NewServer(p)
	defer front.Close()

	status, _ := get(t, front.URL+"/predict?network=x")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	status, _ = get(t, front.URL+"/readyz")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with no ready replicas, want 503", status)
	}
}

func TestFleetzIntrospection(t *testing.T) {
	r0 := newFakeReplica(t, "r0")
	r1 := newFakeReplica(t, "r1")
	p, front := startProxy(t, 5, r0, r1)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := p.WaitReady(ctx, 2); err != nil {
		t.Fatal(err)
	}

	status, body := get(t, front.URL+"/fleetz")
	if status != http.StatusOK {
		t.Fatalf("/fleetz status %d", status)
	}
	var got struct {
		Replicas    []ReplicaStatus `json:"replicas"`
		VNodes      int             `json:"vnodes"`
		MaxInflight int             `json:"max_inflight"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("decoding /fleetz: %v\n%s", err, body)
	}
	if len(got.Replicas) != 2 || got.VNodes != vnodesPerReplica || got.MaxInflight != 5 {
		t.Fatalf("/fleetz = %+v", got)
	}
	for _, r := range got.Replicas {
		if !r.Ready || r.ModelVersion != 7 || r.Inflight != 0 {
			t.Fatalf("replica row %+v, want ready with model_version 7", r)
		}
	}

	status, body = get(t, front.URL+"/healthz")
	if status != http.StatusOK || !strings.Contains(body, `"ready": 2`) {
		t.Fatalf("/healthz = %d %s", status, body)
	}
}

func TestBodyTooLarge413(t *testing.T) {
	r0 := newFakeReplica(t, "r0")
	_, front := startProxy(t, 0, r0)

	big := strings.NewReader(strings.Repeat("x", maxBufferedBody+1))
	resp, err := http.Post(front.URL+"/predict/batch", "application/json", big)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
}

func TestRingIsBalanced(t *testing.T) {
	addrs := []string{"10.0.0.1:1", "10.0.0.2:1", "10.0.0.3:1", "10.0.0.4:1"}
	p, err := New(addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(addrs))
	const keys = 4096
	for i := 0; i < keys; i++ {
		owners := p.owners(fnv64(fmt.Sprintf("network-%d", i)))
		counts[owners[0]]++
	}
	for i, c := range counts {
		frac := float64(c) / keys
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("replica %d owns %.0f%% of the key space; ring badly unbalanced: %v",
				i, 100*frac, counts)
		}
	}
}
