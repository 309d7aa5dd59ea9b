package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive client connection. The benchmark gives each
// closed-loop goroutine its own conn, so c goroutines hold exactly c
// connections to the daemon.
type conn struct {
	hc   *http.Client
	base string
	body bytes.Buffer // reply bytes, reused across calls on this conn
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &conn{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// statusError is a reply outside 2xx.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// call sends one request and decodes a 2xx JSON reply into out (when
// non-nil). It returns the reply size in bytes.
func (c *conn) call(method, path string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	n := c.body.Len()
	if resp.StatusCode/100 != 2 {
		return n, &statusError{code: resp.StatusCode, body: c.body.String()}
	}
	if out != nil {
		if err := json.Unmarshal(c.body.Bytes(), out); err != nil {
			return n, fmt.Errorf("perf: decode %s reply: %w", path, err)
		}
	}
	return n, nil
}

// getJSON fetches path and decodes its JSON reply.
func (c *conn) getJSON(path string, out any) error {
	_, err := c.call(http.MethodGet, path, nil, out)
	return err
}

// getText fetches path as text.
func (c *conn) getText(path string) (string, error) {
	if _, err := c.call(http.MethodGet, path, nil, nil); err != nil {
		return "", err
	}
	return c.body.String(), nil
}

// reply is the union of the route, world-route and world-info reply
// fields the benchmark reads.
type reply struct {
	Status        string          `json:"status"`
	Hops          int64           `json:"hops"`
	Rounds        int             `json:"rounds"`
	Bound         int             `json:"bound"`
	AbortedRounds int             `json:"aborted_rounds"`
	Recompiles    int             `json:"recompiles"`
	Resume        string          `json:"resume"`
	Certificate   json.RawMessage `json:"certificate"`
	Epoch         int             `json:"epoch"`
	Links         int             `json:"links"`
}

// routeBody encodes a route request. budget > 0 asks for a budgeted walk,
// resume continues one; hopsPerEpoch > 0 is the world-route clock coupling.
func routeBody(src, dst int64, budget int64, resume string, hopsPerEpoch int) []byte {
	b := make([]byte, 0, 96+len(resume))
	b = append(b, `{"src":`...)
	b = strconv.AppendInt(b, src, 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, dst, 10)
	if budget > 0 {
		b = append(b, `,"budget_hops":`...)
		b = strconv.AppendInt(b, budget, 10)
	}
	if resume != "" {
		// Tokens are base64url plus a dot: no JSON escaping needed.
		b = append(b, `,"resume":"`...)
		b = append(b, resume...)
		b = append(b, '"')
	}
	if hopsPerEpoch > 0 {
		b = append(b, `,"hops_per_epoch":`...)
		b = strconv.AppendInt(b, int64(hopsPerEpoch), 10)
	}
	return append(b, '}')
}
