package testutil

import (
	"net"
	"sync"
	"sync/atomic"
)

// IOCounts counts the Read and Write calls made on a connection and the
// bytes they moved. A call is counted when it is made, whatever it returns,
// because what the counts stand for is trips into the kernel.
type IOCounts struct {
	Reads, Writes           atomic.Int64
	ReadBytes, WrittenBytes atomic.Int64
}

// countingConn counts the I/O on a net.Conn.
type countingConn struct {
	net.Conn
	counts *IOCounts
}

// CountConn wraps c so that its reads and writes are counted in counts.
func CountConn(c net.Conn, counts *IOCounts) net.Conn {
	return &countingConn{Conn: c, counts: counts}
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.counts.Reads.Add(1)
	n, err := c.Conn.Read(p)
	c.counts.ReadBytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.counts.Writes.Add(1)
	n, err := c.Conn.Write(p)
	c.counts.WrittenBytes.Add(int64(n))
	return n, err
}

// CountingListener counts the I/O on every connection it accepts, each
// connection on its own.
type CountingListener struct {
	net.Listener

	mu    sync.Mutex
	conns []*IOCounts
}

// CountListener wraps ln.
func CountListener(ln net.Listener) *CountingListener {
	return &CountingListener{Listener: ln}
}

// Accept wraps the next connection in a counter of its own.
func (l *CountingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	counts := new(IOCounts)
	l.mu.Lock()
	l.conns = append(l.conns, counts)
	l.mu.Unlock()
	return CountConn(c, counts), nil
}

// Conns returns the counters of the connections accepted so far, in the
// order they were accepted.
func (l *CountingListener) Conns() []*IOCounts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*IOCounts(nil), l.conns...)
}
