package fleet

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"time"

	"repro/internal/obs"
)

// The forward path. Each proxied request runs its whole exchange on the
// handler goroutine: take an idle keep-alive connection to the replica (or
// dial one), write the request, read the response head, relay the body, and
// pool the connection again only after a clean, complete body read. No
// http.Transport sits in between, so there is no per-connection reader and
// writer goroutine, channel handoff, URL re-parse or header-map clone.

// backendConn is one keep-alive connection to a replica, with the buffered
// reader and writer its exchanges share.
type backendConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// abort unblocks the exchange in progress on the connection by moving its
// deadline into the past. The connection is closed, never pooled, after.
func (c *backendConn) abort() { _ = c.SetDeadline(time.Unix(1, 0)) }

// takeIdle pops the most recently pooled connection, or returns nil.
func (r *replica) takeIdle() *backendConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.idle)
	if n == 0 {
		return nil
	}
	bc := r.idle[n-1]
	r.idle[n-1] = nil
	r.idle = r.idle[:n-1]
	return bc
}

// putIdle pools a connection after a clean exchange, or closes it when max
// connections are already idle.
func (r *replica) putIdle(bc *backendConn, max int) {
	r.mu.Lock()
	if len(r.idle) < max {
		r.idle = append(r.idle, bc)
		bc = nil
	}
	r.mu.Unlock()
	if bc != nil {
		bc.Close()
	}
}

// dial opens a new connection to the replica.
func (r *replica) dial(ctx context.Context, deadline time.Time) (*backendConn, error) {
	d := net.Dialer{Deadline: deadline}
	c, err := d.DialContext(ctx, "tcp", r.addr)
	if err != nil {
		return nil, err
	}
	return &backendConn{Conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// forward sends the request to one replica and relays the response. It
// reports retryable=true only for connection-level failures where no
// response bytes reached the client. A sampled request propagates its trace
// context downstream, with a fresh span ID per attempt.
func (p *Proxy) forward(w http.ResponseWriter, req *http.Request, r *replica, body []byte, rt *obs.RequestTrace) (int, bool) {
	r.inflight.Add(1)
	metricInflight.Add(1)
	defer func() {
		r.inflight.Add(-1)
		metricInflight.Add(-1)
	}()

	var traceparent string
	if rt != nil {
		traceparent = rt.Context().Child().Traceparent()
	}
	metricForwarded.Inc()
	ctx := req.Context()
	deadline := time.Now().Add(p.timeout)
	bc := r.takeIdle()
	reused := bc != nil
	for {
		if bc == nil {
			var err error
			if bc, err = r.dial(ctx, deadline); err != nil {
				return unanswered(ctx, w)
			}
		}
		// Set before the abort hook is armed, so it cannot overwrite the
		// abort of a client that has already left. A failure here means the
		// connection is closed, which the exchange reports.
		_ = bc.SetDeadline(deadline)
		stop := context.AfterFunc(ctx, bc.abort)
		resp, got, err := exchange(bc, req, r.addr, body, traceparent)
		if err == nil {
			return p.relay(w, r, bc, resp, stop), false
		}
		stop()
		bc.Close()
		if !reused || got || errors.Is(err, os.ErrDeadlineExceeded) {
			return unanswered(ctx, w)
		}
		bc, reused = nil, false // the replica closed this idle connection: redial once
	}
}

// unanswered settles a forward that got no response: a connection-level
// failure is retryable on the next replica, unless the client has left, in
// which case the replica is not at fault and nothing is retried.
func unanswered(ctx context.Context, w http.ResponseWriter) (int, bool) {
	if ctx.Err() == nil {
		return 0, true
	}
	writeError(w, http.StatusBadGateway, "client disconnected")
	return http.StatusBadGateway, false
}

// exchange writes the request on bc and reads the final response head,
// skipping interim 1xx responses. got reports whether any response byte
// arrived: a reused connection that fails before one did was closed by the
// replica while it sat idle.
func exchange(bc *backendConn, req *http.Request, host string, body []byte, traceparent string) (resp *http.Response, got bool, err error) {
	writeRequest(bc.bw, req, host, body, traceparent)
	if err = bc.bw.Flush(); err != nil {
		return nil, false, err
	}
	if _, err = bc.br.Peek(1); err != nil {
		return nil, false, err
	}
	for {
		resp, err = http.ReadResponse(bc.br, req)
		if err != nil || resp.StatusCode >= http.StatusOK {
			return resp, true, err
		}
	}
}

// relay copies the replica's response to the client and pools the
// connection only after a clean, complete body read. A body that breaks off
// after the status went out aborts the client's response, so a truncated
// answer never reads as a complete one.
func (p *Proxy) relay(w http.ResponseWriter, r *replica, bc *backendConn, resp *http.Response, stop func() bool) int {
	h := w.Header()
	for k, vs := range resp.Header {
		if !hopByHop(k) {
			h[k] = vs
		}
	}
	h.Set("X-Fleet-Replica", r.addr)
	w.WriteHeader(resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	if stop() && err == nil && !resp.Close {
		r.putIdle(bc, p.maxInflight)
		return resp.StatusCode
	}
	bc.Close()
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	return resp.StatusCode
}

// hopByHop reports the headers that describe one connection rather than the
// message, which the proxy forwards in neither direction, and Expect: the
// server already answered it when route read the body.
func hopByHop(key string) bool {
	switch key {
	case "Connection", "Keep-Alive", "Proxy-Connection", "Te", "Trailer", "Transfer-Encoding", "Upgrade", "Expect":
		return true
	}
	return false
}

// writeRequest serializes the forwarded request into bw: the request line,
// Host (the replica's address), the client's end-to-end headers in sorted
// key order, X-Forwarded-For (the client's address, replacing any the client
// sent), the sampled traceparent (replacing the client's; an unsampled
// request passes the client's through), Content-Length and the body. Errors
// stick in bw and surface at its Flush.
func writeRequest(bw *bufio.Writer, req *http.Request, host string, body []byte, traceparent string) {
	bw.WriteString(req.Method)
	bw.WriteByte(' ')
	bw.WriteString(req.URL.RequestURI())
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(host)
	bw.WriteString("\r\n")
	var scratch [16]string
	keys := scratch[:0]
	for k := range req.Header {
		switch {
		case hopByHop(k), k == "Host", k == "Content-Length", k == "X-Forwarded-For",
			k == obs.TraceparentHeader && traceparent != "":
		default:
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	for _, k := range keys {
		for _, v := range req.Header[k] {
			writeField(bw, k, v)
		}
	}
	writeField(bw, "X-Forwarded-For", req.RemoteAddr)
	if traceparent != "" {
		writeField(bw, obs.TraceparentHeader, traceparent)
	}
	if len(body) > 0 || req.Method == http.MethodPost || req.Method == http.MethodPut || req.Method == http.MethodPatch {
		bw.WriteString("Content-Length: ")
		bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(body)), 10))
		bw.WriteString("\r\n")
	}
	bw.WriteString("\r\n")
	bw.Write(body)
}

// writeField writes one header line.
func writeField(bw *bufio.Writer, key, value string) {
	bw.WriteString(key)
	bw.WriteString(": ")
	bw.WriteString(value)
	bw.WriteString("\r\n")
}
