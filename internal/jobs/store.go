package jobs

// store.go persists jobs under one directory, named by content hash:
//
//	<id>.result.json   the graphio reduction-result document (done jobs)
//	<id>.job.json      the job metadata document (all terminal states)
//
// Writes are atomic (temp file + rename), the result document lands
// before the metadata document, and recovery rescans the directory on
// manager construction — so a restart finds every job that reached a
// terminal state before the crash, and an interrupted write leaves at
// worst an orphan result document, which load reads as a done job.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"pslocal/internal/core"
	"pslocal/internal/graphio"
)

const (
	resultSuffix = ".result.json"
	jobSuffix    = ".job.json"
	// jobDocType tags persisted job documents, mirroring the graphio
	// result document's "type" discriminator.
	jobDocType = "job"
)

// validJobID reports whether s has the shape of a job id: the 64-digit
// lowercase hex SHA-256 content hash.
func validJobID(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// jobDoc is the persisted metadata shape: the Info snapshot plus a type
// tag so mixed-up files fail loudly.
type jobDoc struct {
	Type string `json:"type"`
	Info
}

// store owns the directory. Methods are safe for concurrent use: one
// manager persists a job once, at its terminal transition, and when
// managers sharing the directory both run an id, each rename is atomic
// and the last one wins.
type store struct{ dir string }

// newStore creates dir (and parents) and returns the store.
func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: creating store: %w", err)
	}
	return &store{dir: dir}, nil
}

// atomicWrite writes data next to path and renames it into place.
func (st *store) atomicWrite(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(st.dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// writeResult persists res as the job's graphio result document.
func (st *store) writeResult(id string, res *core.Result) error {
	return st.atomicWrite(filepath.Join(st.dir, id+resultSuffix), func(f *os.File) error {
		return graphio.WriteResult(f, res)
	})
}

// readResult loads the job's result document back.
func (st *store) readResult(id string) (*core.Result, error) {
	f, err := os.Open(filepath.Join(st.dir, id+resultSuffix))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graphio.ReadResult(f)
}

// resultPath returns the path GET responses and the CLI report for a
// done job's document.
func (st *store) resultPath(id string) string {
	return filepath.Join(st.dir, id+resultSuffix)
}

// writeJob persists the terminal metadata snapshot.
func (st *store) writeJob(info Info) error {
	return st.atomicWrite(filepath.Join(st.dir, info.ID+jobSuffix), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(jobDoc{Type: jobDocType, Info: info})
	})
}

// readJob loads one metadata document.
func (st *store) readJob(path string) (Info, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	var doc jobDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return Info{}, fmt.Errorf("jobs: parsing %s: %w", filepath.Base(path), err)
	}
	if doc.Type != jobDocType {
		return Info{}, fmt.Errorf("jobs: %s: document type %q, want %q", filepath.Base(path), doc.Type, jobDocType)
	}
	return doc.Info, nil
}

// load reads one job's persisted state by id: the metadata document
// when it parses and names id, otherwise the result document as a done
// job (a crash between the two writes, or a mislabelled metadata file).
// That fallback needs a job id, the 64-hex content hash, so a stray
// renamed file does not resurface as a phantom job, and a readable
// result, so a truncated write does not come back as a done job. ok is
// false when the store holds nothing usable for id. Startup, Rescan and
// lookups all read the store through load.
func (st *store) load(id string) (Info, bool) {
	if info, err := st.readJob(filepath.Join(st.dir, id+jobSuffix)); err == nil && info.ID == id {
		return info, true
	}
	if !validJobID(id) {
		return Info{}, false
	}
	res, err := st.readResult(id)
	if err != nil {
		return Info{}, false
	}
	return Info{
		ID:          id,
		State:       StateDone,
		Priority:    PriorityNormal,
		TotalColors: res.TotalColors,
		PhaseCount:  len(res.Phases),
	}, true
}

// recover rescans the store and loads every job it names once, in
// directory order. Unreadable files are skipped — recovery restores what
// it can rather than refusing to start.
func (st *store) recover() ([]Info, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("jobs: rescanning store: %w", err)
	}
	var infos []Info
	seen := make(map[string]bool)
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), jobSuffix)
		if !ok {
			id, ok = strings.CutSuffix(e.Name(), resultSuffix)
		}
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		if info, ok := st.load(id); ok {
			infos = append(infos, info)
		}
	}
	return infos, nil
}
