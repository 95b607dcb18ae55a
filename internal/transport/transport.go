// Package transport abstracts the RPC substrate behind a dial/listen
// interface carrying wire.Message values. Its backend is TCP (tcp.go):
// real sockets, goroutines and context deadlines. Frames are the
// self-framing wire.Envelope encoding (frame.go), responses are
// correlated to requests by RPC id so they may return out of order,
// connections are reused across calls and redialed with capped backoff
// after a failure. Interface is the seam wrappers (such as a counting
// tap) plug into.
//
// The real backend legitimately uses bare goroutines, wall-clock time
// and OS scheduling; rcvet's determinism analyzers exempt this package
// by scope (internal/analysis/scope), not by per-line suppression.
package transport

import (
	"context"
	"errors"

	"ramcloud/internal/wire"
)

// Transport errors.
var (
	// ErrClosed reports a call on a closed connection or listener.
	ErrClosed = errors.New("transport: closed")
	// ErrConnLost reports an in-flight call whose connection died
	// before the response arrived. The caller cannot know whether the
	// request executed; retry only idempotent operations.
	ErrConnLost = errors.New("transport: connection lost")
)

// Handler services one inbound request. remote identifies the peer (its
// host:port). A nil response drops the request without replying — the
// peer sees a timeout, exactly like a lost datagram.
//
// ServeRPC owns the request message and every byte it references, and
// may keep them past its return (a master stores a write's key and value
// as they are): the message is freshly decoded and nothing else
// references it.
type Handler interface {
	ServeRPC(remote string, msg wire.Message) wire.Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(remote string, msg wire.Message) wire.Message

// ServeRPC calls f.
func (f HandlerFunc) ServeRPC(remote string, msg wire.Message) wire.Message {
	return f(remote, msg)
}

// Conn is a client connection to one peer. Calls are safe for
// concurrent use and may complete out of order; each call's deadline
// comes from its context.
type Conn interface {
	// Call sends msg and blocks until its correlated response arrives,
	// the context expires, or the connection fails.
	Call(ctx context.Context, msg wire.Message) (wire.Message, error)
	// Close tears the connection down; in-flight calls fail.
	Close() error
}

// PendingCall is one pipelined in-flight request: the send has been
// queued, the response has not necessarily arrived.
type PendingCall interface {
	// Wait blocks until the correlated response arrives, the context
	// expires, or the connection fails. It must be called exactly once.
	Wait(ctx context.Context) (wire.Message, error)
}

// Starter is implemented by connections that support pipelining: many
// requests in flight on one connection without a goroutine per call.
// The TCP backend implements it; callers should type-assert and fall
// back to a goroutine around Call when the substrate doesn't.
type Starter interface {
	// Start queues msg and returns without waiting for the response.
	Start(ctx context.Context, msg wire.Message) (PendingCall, error)
}

// Listener is a bound service endpoint.
type Listener interface {
	// Addr returns the bound address in the transport's dial format.
	Addr() string
	// Close stops accepting and severs established connections.
	Close() error
}

// Interface is the substrate: dial peers, host services.
type Interface interface {
	Dial(addr string) (Conn, error)
	Listen(addr string, h Handler) (Listener, error)
}
