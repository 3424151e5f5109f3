package obs

// jsonerror.go holds the error envelope shared by cfserve and cfgate at
// their HTTP edge, next to the request id they both stamp there.

import (
	"encoding/json"
	"net/http"
	"strings"
)

// JSONErrorWriter wraps w so that a plain-text error body, such as the
// one http.ServeMux writes for a route it cannot match (404, or 405 with
// an Allow header), comes out as the JSON error envelope
// {"error": "<text>"}. The status and the headers the handler set stay.
func JSONErrorWriter(w http.ResponseWriter) http.ResponseWriter {
	return &jsonErrorWriter{w: w}
}

type jsonErrorWriter struct {
	w     http.ResponseWriter
	wrote bool
}

func (j *jsonErrorWriter) Header() http.Header { return j.w.Header() }

func (j *jsonErrorWriter) WriteHeader(status int) {
	j.w.Header().Set("Content-Type", "application/json")
	j.w.WriteHeader(status)
}

func (j *jsonErrorWriter) Write(p []byte) (int, error) {
	if !j.wrote {
		j.wrote = true
		body, err := json.Marshal(map[string]string{"error": strings.TrimSpace(string(p))})
		if err != nil {
			return 0, err
		}
		if _, err := j.w.Write(append(body, '\n')); err != nil {
			return 0, err
		}
	}
	// Report the caller's bytes as consumed either way: the envelope
	// replaces the text body rather than appending to it.
	return len(p), nil
}
