package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"testing"
	"time"
)

// serveForTest runs ServeUntil with h on a loopback listener until the
// test ends and returns the listener's address.
func serveForTest(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() {
		served <- ServeUntil(ctx, ln, h, time.Second)
	}()
	t.Cleanup(func() {
		cancel()
		<-served
	})
	return ln.Addr().String()
}

// TestServeUntilDropsStalledHeaders is the slowloris check: a client that
// stops in the middle of its request headers is disconnected once the
// header timeout passes, instead of holding the connection open.
func TestServeUntilDropsStalledHeaders(t *testing.T) {
	prev := readHeaderTimeout
	readHeaderTimeout = 100 * time.Millisecond
	t.Cleanup(func() { readHeaderTimeout = prev })

	conn, err := net.Dial("tcp", serveForTest(t, http.NotFoundHandler()))
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

// TestDecodeBodyDropsTricklingBody: a client that sends complete headers
// and then trickles its body one byte at a time is cut off once the body
// read timeout passes, long before its declared body has arrived.
func TestDecodeBodyDropsTricklingBody(t *testing.T) {
	prev := bodyReadTimeout
	bodyReadTimeout = 300 * time.Millisecond
	t.Cleanup(func() { bodyReadTimeout = prev })

	readErr := make(chan error, 1)
	addr := serveForTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		readErr <- decodeBody(w, r, 1<<20, &req)
		http.Error(w, "body", http.StatusBadRequest)
	}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The body opens a JSON string, so the decoder waits for more; 1000
	// body bytes at one per 20 ms would take 20 s.
	if _, err := io.WriteString(conn, "POST /v1/solve HTTP/1.1\r\nHost: kpd\r\nContent-Length: 1000\r\n\r\n{\"ring\":\""); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for range 1000 {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			if _, err := conn.Write([]byte{'x'}); err != nil {
				return
			}
		}
	}()
	defer wg.Wait()
	defer close(stop)

	// The server answers 400 and closes, or resets the connection over
	// the unread body; only the client's own deadline means it hung on.
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var ne net.Error
	if _, err := io.ReadAll(conn); errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("trickling connection still open after %s", time.Since(start).Round(time.Millisecond))
	}
	select {
	case err := <-readErr:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("body read ended with %v, want the read deadline", err)
		}
	default:
		t.Fatal("the connection closed before the handler saw the body read fail")
	}
}

// TestRequestContextOutlivesBodyRead: once the body is in, a handler may
// run past the body read timeout with a live request context. A deadline
// still live while net/http watches the connection for a disconnect would
// fail that read and cancel the context, so a long kpd solve would end as
// 503.
func TestRequestContextOutlivesBodyRead(t *testing.T) {
	prev := bodyReadTimeout
	bodyReadTimeout = 100 * time.Millisecond
	t.Cleanup(func() { bodyReadTimeout = prev })
	_, _, req := testSystem(t, 9, 8)

	t.Run("handler", func(t *testing.T) {
		ctxErr := make(chan error, 1)
		addr := serveForTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var got SolveRequest
			if err := decodeBody(w, r, 1<<20, &got); err != nil {
				ctxErr <- err
				return
			}
			time.Sleep(3 * bodyReadTimeout)
			ctxErr <- r.Context().Err()
		}))
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post("http://"+addr+"/v1/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if err := <-ctxErr; err != nil {
			t.Fatalf("request context after the handler outlived the body read timeout: %v", err)
		}
	})

	t.Run("kpd", func(t *testing.T) {
		s := newTestServer(t, nil)
		s.testHookInSlot = func() { time.Sleep(3 * bodyReadTimeout) }
		client := &Client{BaseURL: "http://" + serveForTest(t, s.Handler())}
		if _, err := client.Solve(context.Background(), req); err != nil {
			t.Fatalf("solve held past the body read timeout: %v", err)
		}
	})
}
