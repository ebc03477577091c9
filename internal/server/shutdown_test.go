package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServeUntilDropsStalledHeaders is the slowloris check: a client that
// stops in the middle of its request headers is disconnected once the
// header timeout passes, instead of holding the connection open.
func TestServeUntilDropsStalledHeaders(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = prev })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- ServeUntil(ctx, ln, http.NotFoundHandler(), time.Second)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/solve HTTP/1.1\r\nHost: kpd\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	// The server may answer 408 before closing; either way the read ends
	// with the connection closed, long before this deadline.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %s: %v", time.Since(start).Round(time.Millisecond), err)
	}
}
