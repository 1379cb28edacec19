package obs

import "context"

// Context carriage for spans. A server (or any orchestrator that hops
// goroutines between accepting a request and executing it) creates a
// trace with NewTrace and hands a span of it to the work: through an
// options field, or through the request context with NewContext or
// ContextWithSpan, which is how coarsen.(*Coarsener).RunCtx receives it.
// The work passes the span down to every kernel it runs; nothing is bound
// to a goroutine, so any number of requests are traced concurrently
// without sharing state.

type ctxKey struct{}

// reqIDKey carries the request id alongside the trace. The id is assigned
// at the HTTP boundary and rides the same context the trace does, so the
// structured log line a request emits and the spans/counters it records
// can be joined after the fact.
type reqIDKey struct{}

// ContextWithRequestID returns a copy of ctx carrying the request id.
// An empty id returns ctx unchanged.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, reqIDKey{}, id)
}

// RequestIDFromContext returns the request id carried by ctx, or "".
func RequestIDFromContext(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(reqIDKey{}).(string)
	return id
}

// NewContext returns a copy of ctx carrying the trace's root span. A nil
// trace returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return ContextWithSpan(ctx, t.Root)
}

// ContextWithSpan returns a copy of ctx carrying s. A nil span returns ctx
// unchanged.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}
