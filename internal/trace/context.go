package trace

import "context"

// Spans follow the context: a request or job opens a root span and puts
// it in its context with ContextWith, and each layer below starts its
// span with Child and hands that span down the same way. A call whose
// context carries no span records nothing, so inner Monte-Carlo loops
// and library calls made without a traced context cost no span work.

// ctxKey keys the span a context carries.
type ctxKey struct{}

// ContextWith returns ctx carrying a as the parent for spans started by
// Child. A nil a returns ctx unchanged, so an untraced call allocates
// nothing.
func ContextWith(ctx context.Context, a *Active) context.Context {
	if a == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, a)
}

// FromContext returns the span ctx carries, or nil for a nil ctx or one
// without a span.
func FromContext(ctx context.Context) *Active {
	if ctx == nil {
		return nil
	}
	a, _ := ctx.Value(ctxKey{}).(*Active)
	return a
}

// Child opens a span under the span ctx carries, on that span's
// recorder, with room for attrs attributes so that adding them with
// Attr never grows the slice. With no span in ctx it records nothing and
// returns nil; callers build attributes only for a non-nil span.
func Child(ctx context.Context, name string, attrs int) *Active {
	parent := FromContext(ctx)
	if parent == nil {
		return nil
	}
	a := parent.r.Start(name, parent)
	if attrs > 0 {
		a.span.Attrs = make([]Attr, 0, attrs)
	}
	return a
}
