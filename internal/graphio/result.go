package graphio

// result.go serializes the outcome of the Theorem 1.1 reduction
// (core.Result) as a JSON document, the schema shared by the cfreduce
// -out flag, pslocal.WriteResult and the cmd/cfserve response body:
//
//	{
//	  "type": "reduction-result",
//	  "k": 3,
//	  "total_colors": 3,
//	  "phases": [{"phase":1,"edges_before":24,...}],
//	  "multicoloring": [[1],[2,3],...]
//	}

import (
	"encoding/json"
	"fmt"
	"io"

	"pslocal/internal/core"
)

// ResultDoc is the JSON document of a core.Result: the one value
// WriteResult encodes, which cmd/cfserve embeds in its responses as is.
// The weight fields appear only on weighted reductions, so unweighted
// documents are byte-identical to the pre-weights schema.
type ResultDoc struct {
	Type          string     `json:"type"`
	K             int        `json:"k"`
	TotalColors   int        `json:"total_colors"`
	Weighted      bool       `json:"weighted,omitempty"`
	TotalWeight   int64      `json:"total_weight,omitempty"`
	Phases        []phaseDoc `json:"phases"`
	Multicoloring [][]int32  `json:"multicoloring"`
}

// phaseDoc is the JSON shape of a core.PhaseStat.
type phaseDoc struct {
	Phase         int   `json:"phase"`
	EdgesBefore   int   `json:"edges_before"`
	ConflictNodes int   `json:"conflict_nodes"`
	ConflictEdges int   `json:"conflict_edges"`
	ISSize        int   `json:"is_size"`
	ISWeight      int64 `json:"is_weight,omitempty"`
	HappyRemoved  int   `json:"happy_removed"`
}

// resultDocType tags reduction-result documents so mixed-up files fail
// loudly instead of decoding as an instance.
const resultDocType = "reduction-result"

// NewResultDoc builds res's document. It shares res's multicolouring.
func NewResultDoc(res *core.Result) *ResultDoc {
	doc := &ResultDoc{
		Type:          resultDocType,
		K:             res.K,
		TotalColors:   res.TotalColors,
		Weighted:      res.Weighted,
		TotalWeight:   res.TotalWeight,
		Phases:        make([]phaseDoc, len(res.Phases)),
		Multicoloring: res.Multicoloring,
	}
	for i, p := range res.Phases {
		doc.Phases[i] = phaseDoc{
			Phase:         p.Phase,
			EdgesBefore:   p.EdgesBefore,
			ConflictNodes: p.ConflictNodes,
			ConflictEdges: p.ConflictEdges,
			ISSize:        p.ISSize,
			ISWeight:      p.ISWeight,
			HappyRemoved:  p.HappyRemoved,
		}
	}
	return doc
}

// WriteResult writes res as an indented JSON document.
func WriteResult(w io.Writer, res *core.Result) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(NewResultDoc(res)); err != nil {
		return fmt.Errorf("graphio: writing result: %w", err)
	}
	return nil
}

// WriteResultFile writes res to path as the result document.
func WriteResultFile(path string, res *core.Result) error {
	return writeFile(path, func(w io.Writer) error {
		return WriteResult(w, res)
	})
}

// ReadResult parses a reduction-result document written by WriteResult.
func ReadResult(r io.Reader) (*core.Result, error) {
	dec := json.NewDecoder(r)
	var doc ResultDoc
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	if doc.Type != resultDocType {
		return nil, fmt.Errorf("%w: document type %q, want %q", ErrFormat, doc.Type, resultDocType)
	}
	res := &core.Result{
		K:             doc.K,
		TotalColors:   doc.TotalColors,
		Weighted:      doc.Weighted,
		TotalWeight:   doc.TotalWeight,
		Phases:        make([]core.PhaseStat, len(doc.Phases)),
		Multicoloring: doc.Multicoloring,
	}
	for i, p := range doc.Phases {
		res.Phases[i] = core.PhaseStat{
			Phase:         p.Phase,
			EdgesBefore:   p.EdgesBefore,
			ConflictNodes: p.ConflictNodes,
			ConflictEdges: p.ConflictEdges,
			ISSize:        p.ISSize,
			ISWeight:      p.ISWeight,
			HappyRemoved:  p.HappyRemoved,
		}
	}
	return res, nil
}
