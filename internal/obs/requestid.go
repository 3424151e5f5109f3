package obs

// requestid.go is the request-id propagation contract: cfgate mints an
// id per request (accepting a caller-supplied one when it is shaped like
// an id), forwards it to the backend on every proxy attempt, cfserve
// echoes it and stamps it on traces and job metadata. The trust
// boundary sits at the gateway: anything not matching ValidRequestID is
// replaced, so backends and logs only ever see bounded, log-safe ids.

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// RequestIDHeader carries the request id across the cluster, next to
// X-Pslocal-Backend.
const RequestIDHeader = "X-Pslocal-Request-Id"

// requestIDBytes is the entropy of a minted id (rendered as 2x hex
// digits).
const requestIDBytes = 8

// NewRequestID mints a fresh random request id (16 hex digits).
func NewRequestID() string {
	var b [requestIDBytes]byte
	// crypto/rand.Read is documented to never fail; a broken entropy
	// source crashes the process there, not here.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether s is acceptable as a caller-supplied
// request id: 8 to 64 characters of [0-9A-Za-z._-]. Anything else —
// empty, oversized, control characters, header-splitting attempts — is
// replaced at the trust boundary.
func ValidRequestID(s string) bool {
	if len(s) < 8 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '.' || c == '_' || c == '-' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return false
		}
	}
	return true
}

// EnsureRequestID returns s when it is a valid request id and mints a
// fresh one otherwise.
func EnsureRequestID(s string) string {
	if ValidRequestID(s) {
		return s
	}
	return NewRequestID()
}

// ridCtxKey keys the request id in a context.
type ridCtxKey struct{}

// ContextWithRequestID attaches a request id to ctx.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridCtxKey{}, id)
}

// RequestIDFrom returns the request id attached to ctx ("" when none).
func RequestIDFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	id, _ := ctx.Value(ridCtxKey{}).(string)
	return id
}
