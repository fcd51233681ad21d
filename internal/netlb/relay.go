package netlb

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The proxy relays HTTP/1.1 itself. Heads are parsed in their connection's
// read buffer; what is accepted follows net/http's server (FuzzRelayHead
// holds the two together), except that an obs-fold, Content-Length with
// Transfer-Encoding, and CONNECT are refused. Header lines go on verbatim
// less the hop-by-hop ones; the framing headers are the relay's own.

const (
	// clientCheckAfter is how long an exchange runs before the relay looks
	// for a client that has left, with a one-byte read-ahead.
	clientCheckAfter = 5 * time.Millisecond
	// rejectLinger is how long a refused client may go on sending before
	// its connection closes, so that it reads the refusal, not a reset.
	rejectLinger = 500 * time.Millisecond
	bodyChunked  = -1 // framing: chunked
	bodyToEOF    = -2 // framing: until the sender closes
)

var (
	errHeadTooLong = errors.New("netlb: message head too long")
	errMalformed   = errors.New("netlb: malformed message")
	errClientGone  = errors.New("netlb: client went away")
)

// readHead returns the next message head, its blank line included. It
// points into br's buffer, valid until br's next read, unless it outgrows
// the buffer and is gathered line by line, up to DefaultMaxHeaderBytes.
func readHead(br *bufio.Reader) ([]byte, error) {
	for from := 0; ; {
		b, _ := br.Peek(br.Buffered())
		if i := headEnd(b, from); i >= 0 {
			_, _ = br.Discard(i)
			return b[:i], nil
		} else if len(b) == br.Size() {
			break
		}
		from = max(0, len(b)-2)
		if _, err := br.Peek(len(b) + 1); err != nil {
			if err == io.EOF && len(b) > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	var h []byte
	for start := 0; len(h) <= http.DefaultMaxHeaderBytes; {
		line, err := br.ReadSlice('\n')
		if h = append(h, line...); err == bufio.ErrBufferFull {
			continue
		} else if err != nil {
			return nil, err
		} else if line, _ := cutLine(h[start:]); start > 0 && len(line) == 0 {
			return h, nil
		}
		start = len(h)
	}
	return nil, errHeadTooLong
}

// headEnd finds the end of a head: past its first line, a line ending
// followed by a blank line.
func headEnd(b []byte, from int) int {
	for i := from; ; {
		j := bytes.IndexByte(b[i:], '\n')
		if j < 0 {
			return -1
		} else if i += j + 1; i < len(b) && b[i] == '\n' {
			return i + 1
		} else if i+1 < len(b) && b[i] == '\r' && b[i+1] == '\n' {
			return i + 2
		}
	}
}

// cutLine splits b after its first "\n", dropping it and a "\r" before it.
func cutLine(b []byte) (line, rest []byte) {
	line, rest, _ = bytes.Cut(b, []byte{'\n'})
	return bytes.TrimSuffix(line, []byte{'\r'}), rest
}

// field cuts the next header line off hs: the line less its ending and
// trailing blanks (empty at the end of the head), its name and its value.
// ok is false unless the line is a token, a colon and a value of visible
// bytes, blanks and obs-text — so an obs-fold is not.
func field(hs []byte) (line, name, value, rest []byte, ok bool) {
	if line, rest = cutLine(hs); len(line) == 0 || line[0] == ' ' || line[0] == '\t' {
		return nil, nil, nil, rest, len(line) == 0
	}
	line = bytes.TrimRight(line, " \t")
	name, value, _ = bytes.Cut(line, []byte{':'})
	ok = isToken(name) && len(name) < len(line)
	for _, c := range value {
		ok = ok && (c >= ' ' || c == '\t') && c != 0x7f
	}
	return line, name, bytes.TrimLeft(value, " \t"), rest, ok
}

func isToken(b []byte) bool {
	for _, c := range b {
		if !isAlnum(c) && !in(c, "!#$%&'*+-.^_`|~") {
			return false
		}
	}
	return len(b) > 0
}

func isAlnum(c byte) bool { return 'a' <= c|0x20 && c|0x20 <= 'z' || '0' <= c && c <= '9' }

func in(c byte, set string) bool { return c != 0 && strings.IndexByte(set, c) >= 0 }

// eqFold reports whether b is lower, ignoring ASCII case.
func eqFold(b []byte, lower string) bool {
	for i := 0; i < len(b) && len(b) == len(lower); i++ {
		if c := b[i]; c != lower[i] && (c < 'A' || c > 'Z' || c+'a'-'A' != lower[i]) {
			return false
		}
	}
	return len(b) == len(lower)
}

// parseUint parses digits in base 10 or 16 below 2^63 as net/http does.
func parseUint(v []byte, base int) (int64, bool) {
	n, err := strconv.ParseUint(string(v), base, 63)
	return int64(n), err == nil
}

// httpMinor returns d of "HTTP/1.d": -1 for another version of that shape,
// -2 for anything else.
func httpMinor(p []byte) int {
	if len(p) != 8 || string(p[:5]) != "HTTP/" || p[6] != '.' || p[5]-'0' > 9 || p[7]-'0' > 9 {
		return -2
	} else if p[5] != '1' {
		return -1
	}
	return int(p[7] - '0')
}

// head is what a scan of a message's header lines finds.
type head struct {
	lines               []byte // the header lines, through the blank one
	hosts, lengths, tes int
	length, te, agent   []byte          // first Content-Length, last Transfer-Encoding, first User-Agent
	bad                 bool            // a malformed line or Host, or differing Content-Lengths
	close, keepAlive    bool            // Connection options
	expect              bool            // Expect: 100-continue
	named               map[string]bool // the other fields Connection names, lower-cased
}

// scan reads the header lines hs into h, up to the first malformed one.
func (h *head) scan(hs []byte) {
	for h.lines = hs; !h.bad; {
		line, name, value, rest, ok := field(hs)
		if hs = rest; !ok || len(line) == 0 {
			h.bad = !ok
			return
		}
		switch {
		case eqFold(name, "host"):
			h.hosts++
			for _, c := range value {
				h.bad = h.bad || !isAlnum(c) && !in(c, "!$%&'()*+,-.:;=[]_~")
			}
		case eqFold(name, "content-length"):
			h.bad = h.lengths > 0 && !bytes.Equal(value, h.length)
			h.length = value
			h.lengths++
		case eqFold(name, "transfer-encoding"):
			h.te = value
			h.tes++
		case eqFold(name, "user-agent") && h.agent == nil:
			h.agent = value
		case eqFold(name, "expect"):
			h.expect = h.expect || eqFold(value, "100-continue")
		case eqFold(name, "connection"):
			for len(value) > 0 {
				var t []byte
				t, value, _ = bytes.Cut(value, []byte{','})
				switch t = bytes.Trim(t, " \t"); {
				case eqFold(t, "close"):
					h.close = true
				case eqFold(t, "keep-alive"):
					h.keepAlive = true
				case len(t) > 0:
					if h.named == nil {
						h.named = map[string]bool{}
					}
					h.named[strings.ToLower(string(t))] = true
				}
			}
		}
	}
}

// framing is the body length as net/http frames it: bodyChunked for one
// Transfer-Encoding reading "chunked", which is ignored before HTTP/1.1;
// bodyToEOF for neither that nor a Content-Length.
func (h *head) framing(minor int) (n int64, ok bool) {
	if h.tes > 0 && minor > 0 {
		return bodyChunked, h.tes == 1 && eqFold(h.te, "chunked")
	} else if h.lengths > 0 {
		return parseUint(h.length, 10)
	}
	return bodyToEOF, true
}

// writeLines writes the end-to-end header lines to w, less Host and
// Content-Length if asked: not the RFC 9110 hop-by-hop fields, nor those
// Connection names.
func (h *head) writeLines(w *bufio.Writer, dropHost, dropLength bool) {
	for hs := h.lines; ; {
		line, name, _, rest, _ := field(hs)
		if hs = rest; len(line) == 0 {
			return
		}
		drop := dropHost && eqFold(name, "host") || dropLength && eqFold(name, "content-length") ||
			h.named != nil && h.named[strings.ToLower(string(name))]
		for _, hop := range [...]string{"connection", "keep-alive", "proxy-connection", "te", "trailer", "transfer-encoding", "upgrade"} {
			drop = drop || eqFold(name, hop)
		}
		if !drop {
			_, _ = w.Write(line)
			_, _ = w.WriteString("\r\n")
		}
	}
}

// logFields are what an access line says about its request, raw off the
// wire.
type logFields struct {
	remote                    string
	method, target, proto, ua []byte
}

// request is one client request head, parsed in place.
type request struct {
	logFields
	head
	minor  int   // HTTP/1.minor
	length int64 // body bytes, or bodyChunked
	close  bool  // the connection ends after this exchange
}

// parseRequest parses and checks a request head and returns 0, or the
// status to refuse it with.
func parseRequest(h []byte, q *request) int {
	line, hs := cutLine(h)
	method, rest, ok1 := bytes.Cut(line, []byte{' '})
	target, proto, ok2 := bytes.Cut(rest, []byte{' '})
	switch q.minor = httpMinor(proto); {
	case !ok1 || !ok2 || !isToken(method) || q.minor < -1:
		return http.StatusBadRequest
	case q.minor < 0:
		return http.StatusHTTPVersionNotSupported
	case string(method) == http.MethodConnect:
		return http.StatusNotImplemented
	}
	q.scan(hs)
	n, ok := q.framing(q.minor)
	q.method, q.target, q.proto, q.ua = method, originForm(target), proto, q.agent
	if !ok || q.target == nil || q.bad || q.hosts > 1 || q.hosts == 0 && q.minor > 0 || q.lengths > 0 && q.tes > 0 {
		return http.StatusBadRequest
	}
	q.length, q.close = max(n, bodyChunked), q.minor == 0 || q.head.close
	if n == bodyToEOF {
		q.length = 0
	}
	q.expect = q.expect && q.minor > 0 && q.length != 0
	return 0
}

// originForm returns the target as url.ParseRequestURI and RequestURI
// render it, nil where the parse fails; a path and query of bytes that
// both keep as they are is returned in place.
func originForm(t []byte) []byte {
	ok := len(t) > 0 && t[0] == '/'
	for _, c := range t {
		ok = ok && (isAlnum(c) || in(c, "-_.~$&+,/:;=@!'()*[]?"))
	}
	if ok {
		return t
	} else if u, err := url.ParseRequestURI(string(t)); err == nil {
		return []byte(u.RequestURI())
	}
	return nil
}

// reply is one upstream reply head, parsed in place.
type reply struct {
	head
	code   int
	status []byte // the status line past its version: "200 OK"
	length int64  // body bytes, bodyChunked or bodyToEOF
	close  bool   // the upstream connection ends after this reply
}

// parseReply parses a reply head to a request with the given method,
// framed as net/http's ReadResponse frames it.
func parseReply(h, method []byte, rp *reply) error {
	line, hs := cutLine(h)
	proto, status, _ := bytes.Cut(line, []byte{' '})
	*rp = reply{status: bytes.TrimLeft(status, " ")}
	rp.scan(hs)
	minor := httpMinor(proto)
	code, ok := parseUint(rp.status[:min(3, len(rp.status))], 10)
	n, framed := rp.framing(minor)
	if minor < 0 || !ok || code < 100 || len(rp.status) > 3 && rp.status[3] != ' ' || rp.bad || !framed {
		return errMalformed
	}
	rp.code, rp.length, rp.close = int(code), n, minor == 0 && !rp.keepAlive || rp.head.close
	if string(method) == http.MethodHead || code/100 == 1 || code == 204 || code == 304 {
		rp.length = 0
	} else if n == bodyToEOF {
		rp.close = true
	}
	return nil
}

// copyBody relays a body of the given framing from br to w: a chunked one
// chunk for chunk or, with dechunk, only its payload, and without its
// trailer. It returns the payload bytes.
func copyBody(w *bufio.Writer, br *bufio.Reader, length int64, dechunk bool) (n int64, err error) {
	if length == bodyToEOF {
		return w.ReadFrom(br)
	} else if length != bodyChunked {
		if n, err = w.ReadFrom(io.LimitReader(br, length)); err == nil && n < length {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	for {
		line, err := br.ReadSlice('\n')
		line, _, _ = bytes.Cut(line, []byte{';'})
		size, ok := parseUint(bytes.TrimRight(line, " \t\r\n"), 16)
		if err != nil || !ok {
			return n, errors.Join(err, errMalformed)
		} else if size == 0 {
			break
		} else if !dechunk {
			_, _ = w.Write(strconv.AppendInt(w.AvailableBuffer(), size, 16))
			_, _ = w.WriteString("\r\n")
		}
		m, err := copyBody(w, br, size, false)
		if n += m; err != nil {
			return n, err
		} else if crlf, err := br.Peek(2); err != nil || string(crlf) != "\r\n" {
			return n, errMalformed
		}
		_, _ = br.Discard(2)
		if !dechunk {
			_, _ = w.WriteString("\r\n")
		}
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return n, err
		} else if line, _ = cutLine(line); len(line) == 0 {
			break
		}
	}
	if !dechunk {
		_, _ = w.WriteString("0\r\n\r\n")
	}
	return n, nil
}

// clientConn is one client connection of the proxy's.
type clientConn struct {
	c      net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	remote string
	fields []byte // the request head's fields, moved out of br's buffer

	// The client check: timer runs check once an exchange outlasts
	// clientCheckAfter; check reports back on watched.
	timer   *time.Timer
	up      atomic.Pointer[upConn]
	watched chan struct{}
	gone    bool
}

// serveConn serves one client connection, request by request, until the
// client leaves or a head is refused.
func (p *Proxy) serveConn(nc net.Conn) {
	cc := &clientConn{c: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc),
		remote: nc.RemoteAddr().String(), watched: make(chan struct{}, 1)}
	defer p.track(nc, false)
	for {
		h, err := readHead(cc.br)
		if errors.Is(err, errHeadTooLong) {
			cc.refuse(http.StatusRequestHeaderFieldsTooLarge)
		}
		if err != nil {
			return
		}
		q := request{logFields: logFields{remote: cc.remote}}
		if status := parseRequest(h, &q); status != 0 {
			cc.refuse(status)
			return
		} else if !p.relay(cc, &q) {
			return
		}
	}
}

// relay routes one request, exchanges it with the chosen upstream and
// relays the reply. The access line is written and the upstream released
// before the reply's last bytes are flushed, so the line never trails the
// reply and Conns reads zero once the client has it. It reports whether
// the client connection carries on.
func (p *Proxy) relay(cc *clientConn, q *request) bool {
	if q.expect {
		_, _ = cc.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		if cc.bw.Flush() != nil {
			return false
		}
	}
	// Reading the body, or the client check, reuses br's buffer: what the
	// exchange and the log line need of the head moves out of it first.
	moved, size := [...]*[]byte{&q.method, &q.target, &q.proto, &q.ua, &q.lines}, 0
	for _, b := range moved {
		size += len(*b)
	}
	cc.fields = slices.Grow(cc.fields[:0], size)
	for _, b := range moved {
		cc.fields = append(cc.fields, *b...)
		*b = cc.fields[len(cc.fields)-len(*b):]
	}
	reqType := -1
	if p.numTypes > 1 {
		path, _, _ := bytes.Cut(q.target, []byte{'?'})
		reqType = TypeFromPath(string(path), p.numTypes)
	}
	a, prop, snapshot := p.route(reqType)
	start := time.Now()
	status, n, keep, err := p.ups[a].exchange(cc, q, start)
	if err != nil {
		status = http.StatusBadGateway
		cc.writeError(status, "bad gateway: "+err.Error(), !keep)
	}
	now := time.Now()
	rt := now.Sub(start)
	p.observe(a, status, rt)
	p.logAccess(&q.logFields, status, n, now, rt, a, prop, snapshot, reqType)
	p.release(a)
	return cc.bw.Flush() == nil && keep
}

// exchange sends q upstream — request line, Host, the client's end-to-end
// header lines, and the body in its own framing — and relays the reply;
// err means nothing reached the client, and keep whether the client
// connection can carry on. A bodiless idempotent request that finds its
// pooled connection stale is replayed once on a fresh one. The connection
// is pooled again only if the reply was read to its end, did not ask to
// close, and the client stayed.
func (u *upstream) exchange(cc *clientConn, q *request, start time.Time) (status int, n int64, keep bool, err error) {
	replay := q.length == 0 && (string(q.method) == http.MethodGet || string(q.method) == http.MethodHead ||
		string(q.method) == http.MethodOptions || string(q.method) == http.MethodTrace)
	c := u.get(start, !replay)
	var rp reply
	for retry := c != nil && replay; ; retry = false {
		if c == nil {
			nc, err := net.DialTimeout("tcp", u.addr, exchangeTimeout)
			if err != nil {
				return 0, 0, q.length == 0, err
			}
			c = &upConn{Conn: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
		}
		c.used = start
		_ = c.SetDeadline(start.Add(exchangeTimeout)) // fails only on a closed conn, which the write reports
		w := c.bw
		_, _ = w.Write(q.method)
		_ = w.WriteByte(' ')
		_, _ = w.Write(q.target)
		_, _ = w.WriteString(" HTTP/1.1\r\nHost: ")
		_, _ = w.WriteString(u.addr)
		_, _ = w.WriteString("\r\n")
		q.writeLines(w, true, true)
		if q.length == bodyChunked {
			_, _ = w.WriteString("Transfer-Encoding: chunked\r\n")
		} else if q.lengths > 0 {
			_, _ = w.WriteString("Content-Length: ")
			_, _ = w.Write(strconv.AppendInt(w.AvailableBuffer(), q.length, 10))
			_, _ = w.WriteString("\r\n")
		}
		_, _ = w.WriteString("\r\n")
		if q.length != 0 {
			_, err = copyBody(w, cc.br, q.length, false)
		}
		if err == nil {
			err = w.Flush()
		}
		if err == nil {
			cc.watch(c)
			if err = readReply(c.br, q.method, &rp); err == nil {
				break
			} else if cc.unwatch() {
				retry, err = false, errClientGone
			}
		}
		_ = c.Close()
		if !retry {
			return 0, 0, q.length == 0 && !errors.Is(err, errClientGone), err
		}
		c, err = nil, nil
	}
	w, dechunk := cc.bw, q.minor == 0 && rp.length == bodyChunked
	keep = !q.close && rp.length != bodyToEOF
	_, _ = w.WriteString("HTTP/1.")
	_ = w.WriteByte('0' + byte(min(q.minor, 1)))
	_ = w.WriteByte(' ')
	_, _ = w.Write(rp.status)
	_, _ = w.WriteString("\r\n")
	rp.writeLines(w, false, rp.length == bodyChunked)
	if rp.length == bodyChunked && !dechunk {
		_, _ = w.WriteString("Transfer-Encoding: chunked\r\n")
	}
	if !keep {
		_, _ = w.WriteString("Connection: close\r\n")
	}
	_, _ = w.WriteString("\r\n")
	n, err = copyBody(w, c.br, rp.length, dechunk)
	whole := !cc.unwatch() && err == nil
	if whole && !rp.close {
		u.put(c)
	} else {
		_ = c.Close()
	}
	return rp.code, n, keep && whole, nil
}

// readReply reads a reply head, skipping 1xx replies other than 101 as
// net/http's client does; the relay does not switch protocols.
func readReply(br *bufio.Reader, method []byte, rp *reply) error {
	for {
		h, err := readHead(br)
		if err == nil {
			err = parseReply(h, method, rp)
		}
		if err == nil && rp.code == http.StatusSwitchingProtocols {
			err = errors.New("netlb: upstream switched protocols")
		}
		if err != nil || rp.code/100 != 1 {
			return err
		}
	}
}

// watch arms the client check for an exchange on c.
func (cc *clientConn) watch(c *upConn) {
	cc.up.Store(c)
	if cc.gone = false; cc.timer == nil {
		cc.timer = time.AfterFunc(clientCheckAfter, cc.check)
	} else {
		cc.timer.Reset(clientCheckAfter)
	}
}

// check runs once an exchange has outlasted clientCheckAfter and blocks on
// a one-byte read-ahead from the client, into br. A failure other than
// unwatch's deadline means the client went away, and moves the upstream
// deadline into the past to end the exchange.
func (cc *clientConn) check() {
	if _, err := cc.br.Peek(1); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		cc.gone = true
		_ = cc.up.Load().SetDeadline(time.Unix(1, 0))
	}
	cc.watched <- struct{}{}
}

// unwatch disarms the client check, waiting out one that has started, and
// reports whether the client went away.
func (cc *clientConn) unwatch() bool {
	if cc.timer.Stop() {
		return false
	}
	_ = cc.c.SetReadDeadline(time.Unix(1, 0))
	<-cc.watched
	_ = cc.c.SetReadDeadline(time.Time{})
	return cc.gone
}

// writeError writes a plain-text error reply.
func (cc *clientConn) writeError(status int, msg string, closing bool) {
	_, _ = cc.bw.WriteString("HTTP/1.1 " + strconv.Itoa(status) + " " + http.StatusText(status) +
		"\r\nContent-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\n")
	if closing {
		_, _ = cc.bw.WriteString("Connection: close\r\n")
	}
	_, _ = cc.bw.WriteString("Content-Length: " + strconv.Itoa(len(msg)+1) + "\r\n\r\n" + msg + "\n")
}

// refuse answers a head the relay will not take, then lets the client go
// on sending for up to rejectLinger before the connection closes.
func (cc *clientConn) refuse(status int) {
	cc.writeError(status, strconv.Itoa(status)+" "+http.StatusText(status), true)
	if cc.bw.Flush() == nil {
		if tc, ok := cc.c.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_ = cc.c.SetReadDeadline(time.Now().Add(rejectLinger))
		_, _ = io.Copy(io.Discard, cc.c)
	}
}
