package fleet

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestProxySpanShapeDigest pins the shape of the proxy's request spans —
// name, category, track, and every argument's key and value in order, with
// the trace ID and the replica addresses replaced by placeholders — for a
// sampled GET that retries once and an unsampled GET answered 500, to a
// digest recorded before the proxy and the replica shared one request-trace
// type. Span order is left out of the digest, since spans that start on the
// same clock reading sort by name; the test checks instead that every span
// of the sampled request lies inside its request span.
func TestProxySpanShapeDigest(t *testing.T) {
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	for _, r := range []*fakeReplica{a, b} {
		r.handler = func(w http.ResponseWriter, req *http.Request) {
			if req.URL.Query().Get("fail") != "" {
				w.WriteHeader(http.StatusInternalServerError)
			}
		}
	}
	p, front := probedProxy(t, 0, a, b)
	owner, ok := ownerOf(p, "resnet50")
	if !ok {
		t.Fatal("no owner")
	}
	victim, survivor := a, b
	if owner == b.addr() {
		victim, survivor = b, a
	}
	victim.srv.Close()

	// The first request is always sampled and retries past the closed
	// owner; the second is unsampled and, with the owner marked unready,
	// reaches the survivor, which answers 500.
	sampled, err := http.Get(front.URL + "/predict?network=resnet50&batch=8")
	if err != nil {
		t.Fatal(err)
	}
	sampled.Body.Close()
	failed, err := http.Get(front.URL + "/predict?network=resnet50&fail=1")
	if err != nil {
		t.Fatal(err)
	}
	failed.Body.Close()
	if sampled.StatusCode != http.StatusOK || failed.StatusCode != http.StatusInternalServerError {
		t.Fatalf("statuses %d, %d; want 200, 500", sampled.StatusCode, failed.StatusCode)
	}
	traceID := sampled.Header.Get("X-Trace-Id")
	if len(traceID) != 32 || failed.Header.Get("X-Trace-Id") != "" {
		t.Fatalf("trace ID echoes %q, %q; want 32 hex digits, then none", traceID, failed.Header.Get("X-Trace-Id"))
	}

	evs := p.ProcessTrace().Events
	placeholders := map[string]string{traceID: "<trace>", victim.addr(): "<owner>", survivor.addr(): "<survivor>"}
	var req obs.TraceEvent
	for _, ev := range evs {
		if ev.Cat == obs.RequestCat && argOf(ev, "trace_id") == traceID {
			req = ev
		}
	}
	for _, ev := range evs {
		if argOf(ev, "trace_id") == traceID && (ev.Start < req.Start || ev.Start+ev.Dur > req.Start+req.Dur) {
			t.Errorf("span %q [%v, +%v] lies outside its request span [%v, +%v]", ev.Name, ev.Start, ev.Dur, req.Start, req.Dur)
		}
	}
	got, shape := spanShapeDigest(evs, placeholders)
	const want = "a4683ca78ad3c6bb381fe25f1f25f40b51000ad7b6fb5bacd369acff726915db"
	if got != want {
		t.Errorf("proxy span-shape digest = %s, want %s; spans:\n%s", got, want, shape)
	}
}

// spanShapeDigest renders each span as name|category|track|key=value,...
// with every argument value found in placeholders replaced, sorts the lines
// and returns their sha256 with the text it hashed.
func spanShapeDigest(evs []obs.TraceEvent, placeholders map[string]string) (string, string) {
	lines := make([]string, len(evs))
	for i, ev := range evs {
		args := make([]string, len(ev.Args))
		for j, a := range ev.Args {
			v := a.Val
			if p, ok := placeholders[v]; ok {
				v = p
			}
			args[j] = a.Key + "=" + v
		}
		lines[i] = fmt.Sprintf("%s|%s|%d|%s", ev.Name, ev.Cat, ev.Track, strings.Join(args, ","))
	}
	sort.Strings(lines)
	text := strings.Join(lines, "\n")
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:]), text
}

// shardKeyQueries is the raw-query half of the shard-key corpus: network
// values with escapes, '+', malformed '%' and reserved characters, each in
// query shapes that repeat, precede, follow, nearly match or omit the
// network pair. A bare network pair followed by a valued one is left out:
// TestShardKeyBareNetworkFirst pins that shape on its own.
func shardKeyQueries() []string {
	values := []string{
		"resnet50", "vgg16", "bert-base", "", "res%20net", "a+b", "%zz", "%2",
		"res%2Bnet", "%E2%82%AC", "x=y", "net%26work",
	}
	shapes := []string{
		"network=%s", "network=%s&batch=8", "batch=8&network=%s", "network=%s&network=vgg16",
		"network=vgg16&network=%s", "&&network=%s", "networks=%s", "xnetwork=%s", "network=%s;x=1",
		"Network=%s", "netw%%6Frk=%s", "network=%s&", "batch=%s", "network=%s&batches=1,2",
	}
	var out []string
	for _, s := range shapes {
		for _, v := range values {
			out = append(out, fmt.Sprintf(s, v))
		}
	}
	return append(out, "", "network", "network&batch=8", "batch=8&network", "network=", "&", "=", "==network")
}

// shardKeyBodies is the POST-body half of the shard-key corpus.
func shardKeyBodies() []string {
	return []string{
		`{"network":"resnet50","batches":[1,8]}`,
		`{"batches":[1,8],"network":"vgg16"}`,
		`{ "network" : "bert-base" }`,
		"{\"network\":\n\t\"res net\"}",
		`{"network":""}`,
		`{"network":123}`,
		`{"network":"unterminated`,
		`{"network"}`,
		`{"name":"network","layers":[]}`,
		`{"network_spec":{"name":"nas-1","input_shape":[3,64,64],"layers":[{"kind":"ReLU"}]},"batches":[1]}`,
		`{"network_spec":{"name":"nas-2","input_shape":[3,64,64],"layers":[{"kind":"ReLU"}]},"batches":[1]}`,
		`{"spec":{"network":"inner"},"network":"outer"}`,
		`{"network":"a\"b"}`,
		`not json at all`,
		`x`,
	}
}

// TestShardKeyDigest pins the proxy's routing key over raw queries and POST
// bodies to a digest recorded before the proxy read ?network= through the
// replica's query reader. The ring digest in TestSeededStreamDigests hashes
// keys directly, so only this test pins how a request becomes its key.
func TestShardKeyDigest(t *testing.T) {
	h := sha256.New()
	n := 0
	put := func(req *http.Request, body []byte) {
		var b [8]byte
		k := shardKey(req, body)
		for i := range b {
			b[i] = byte(k >> (8 * i))
		}
		h.Write(b[:])
		n++
	}
	for _, path := range []string{"/predict", "/predict/batch", "/metrics"} {
		for _, q := range shardKeyQueries() {
			put(&http.Request{Method: http.MethodGet, URL: &url.URL{Path: path, RawQuery: q}}, nil)
		}
	}
	for _, q := range []string{"", "network=resnet50", "batch=8", "network"} {
		for _, body := range shardKeyBodies() {
			put(&http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/predict/batch", RawQuery: q}}, []byte(body))
		}
	}
	if n < 200 {
		t.Fatalf("corpus holds %d requests, want at least 200", n)
	}
	const want = "822901794141aacbbd88b03ec85118c13d9193ec8134015773ac37a147666592"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("shard-key digest over %d requests = %s, want %s", n, got, want)
	}
}
