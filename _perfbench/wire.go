package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// errBodyFull reports a response body larger than the room left for it.
var errBodyFull = errors.New("response body does not fit its buffer")

var (
	hdrContentLength    = []byte("Content-Length")
	hdrTransferEncoding = []byte("Transfer-Encoding")
	hdrQueueWait        = []byte("X-Autoe2e-Queue-Wait-Ns")
	hdrBatchWait        = []byte("X-Autoe2e-Batch-Wait-Ns")
	hdrRun              = []byte("X-Autoe2e-Run-Ns")
	hdrSerialize        = []byte("X-Autoe2e-Serialize-Ns")
)

// wireConn is one keep-alive HTTP/1.1 client connection with reusable
// buffers. It speaks only what serve-open needs — a request with an
// optional body, and a response with a Content-Length or chunked body — so
// the load generator allocates nothing per request and its own work stays
// out of the server's allocation count.
type wireConn struct {
	nc  net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	num []byte
	req []byte // request body scratch for the connection's user
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &wireConn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc), num: make([]byte, 0, 20), req: make([]byte, 0, 1024)}, nil
}

func (c *wireConn) close() { c.nc.Close() } // nothing is left to flush

// response is what roundTrip read besides the body.
type response struct {
	status int
	timing wireTiming // from the X-Autoe2e-*-Ns headers, zero when absent
}

// roundTrip sends one request and appends the response body to dst without
// growing it: a body that does not fit within cap(dst) is errBodyFull.
func (c *wireConn) roundTrip(method, path string, body, dst []byte) (response, []byte, error) {
	var resp response
	c.w.WriteString(method)
	c.w.WriteByte(' ')
	c.w.WriteString(path)
	c.w.WriteString(" HTTP/1.1\r\nHost: perfbench\r\n")
	if body != nil {
		c.w.WriteString("Content-Type: application/json\r\nContent-Length: ")
		c.num = strconv.AppendInt(c.num[:0], int64(len(body)), 10)
		c.w.Write(c.num)
		c.w.WriteString("\r\n")
	}
	c.w.WriteString("\r\n")
	c.w.Write(body)
	if err := c.w.Flush(); err != nil {
		return resp, dst, err
	}

	line, err := c.r.ReadSlice('\n')
	if err != nil {
		return resp, dst, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return resp, dst, fmt.Errorf("bad status line %q", line)
	}
	status, ok := atoi(line[9:12], 10)
	if !ok {
		return resp, dst, fmt.Errorf("bad status line %q", line)
	}
	resp.status = int(status)
	length, chunked := int64(-1), false
	for {
		if line, err = c.r.ReadSlice('\n'); err != nil {
			return resp, dst, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, hdrContentLength):
			if length, ok = atoi(v, 10); !ok {
				return resp, dst, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, hdrTransferEncoding):
			chunked = bytes.Equal(v, []byte("chunked"))
		case bytes.EqualFold(k, hdrQueueWait):
			resp.timing.QueueWaitNs, _ = atoi(v, 10)
		case bytes.EqualFold(k, hdrBatchWait):
			resp.timing.BatchWaitNs, _ = atoi(v, 10)
		case bytes.EqualFold(k, hdrRun):
			resp.timing.RunNs, _ = atoi(v, 10)
		case bytes.EqualFold(k, hdrSerialize):
			resp.timing.SerializeNs, _ = atoi(v, 10)
		}
	}
	switch {
	case chunked:
		for {
			if line, err = c.r.ReadSlice('\n'); err != nil {
				return resp, dst, err
			}
			size, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
			n, ok := atoi(size, 16)
			if !ok {
				return resp, dst, fmt.Errorf("bad chunk size %q", line)
			}
			if n == 0 {
				break
			}
			if dst, err = readN(c.r, dst, n); err != nil {
				return resp, dst, err
			}
			if _, err = c.r.Discard(2); err != nil {
				return resp, dst, err
			}
		}
		for { // trailer, up to the empty line
			if line, err = c.r.ReadSlice('\n'); err != nil {
				return resp, dst, err
			}
			if len(bytes.TrimRight(line, "\r\n")) == 0 {
				return resp, dst, nil
			}
		}
	case length >= 0:
		dst, err = readN(c.r, dst, length)
		return resp, dst, err
	default:
		return resp, dst, errors.New("response has neither Content-Length nor chunked body")
	}
}

// readN appends exactly n bytes from r to dst, within cap(dst).
func readN(r io.Reader, dst []byte, n int64) ([]byte, error) {
	at := len(dst)
	if n > int64(cap(dst)-at) {
		return dst, errBodyFull
	}
	dst = dst[:at+int(n)]
	_, err := io.ReadFull(r, dst[at:])
	return dst, err
}

// atoi parses a non-empty unsigned integer in the given base.
func atoi(b []byte, base int64) (int64, bool) {
	if len(b) == 0 || len(b) > 15 {
		return 0, false
	}
	var v int64
	for _, ch := range b {
		var d int64
		switch {
		case '0' <= ch && ch <= '9':
			d = int64(ch - '0')
		case base == 16 && 'a' <= ch && ch <= 'f':
			d = int64(ch-'a') + 10
		case base == 16 && 'A' <= ch && ch <= 'F':
			d = int64(ch-'A') + 10
		default:
			return 0, false
		}
		v = v*base + d
	}
	return v, true
}
