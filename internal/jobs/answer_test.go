package jobs

// answer_test.go covers what a memory-only manager keeps of a done job:
// the Solver's shared result when the job was answered from the answer
// store, a packed copy when it solved; and that a job's retained trace
// snapshot outlives the pooled trace it was recorded on.

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"pslocal/internal/graphio"
	"pslocal/internal/obs"
	"pslocal/internal/solver"
)

// runJob submits req and waits for it to finish done.
func runJob(t *testing.T, m *Manager, req Request) Info {
	t.Helper()
	info, accepted, err := m.Submit(req)
	if err != nil || !accepted {
		t.Fatalf("Submit = %+v, %v, %v", info, accepted, err)
	}
	final, err := m.Await(awaitCtx(t), info.ID)
	if err != nil || final.State != StateDone {
		t.Fatalf("job ended %+v, %v", final, err)
	}
	return final
}

func TestAnsweredJobKeepsSharedResult(t *testing.T) {
	sv := solver.New(solver.WithCache(4))
	m := newManager(t, Config{Solver: sv, Workers: 1})
	body := testBody(t, 1)
	// The implicit strategy ignores the seed, so the second job (another
	// id) is answered with the first job's stored result.
	fresh := runJob(t, m, Request{Body: body, Params: Params{K: 2, Seed: 1}})
	answered := runJob(t, m, Request{Body: body, Params: Params{K: 2, Seed: 2}})

	kept := func(id string) (*job, bool, bool) {
		j, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		defer j.mu.Unlock()
		return j, j.shared != nil, j.result != nil
	}
	if _, shared, packed := kept(fresh.ID); shared || !packed {
		t.Errorf("solved job: shared=%v packed=%v, want a packed copy", shared, packed)
	}
	j, shared, packed := kept(answered.ID)
	if !shared || packed {
		t.Errorf("answered job: shared=%v packed=%v, want the shared result", shared, packed)
	}

	stored, inst, err := sv.With(solver.WithK(2)).SolveReader(context.Background(), bytes.NewReader(body), graphio.FormatAuto)
	if err != nil || !inst.AnswerHit {
		t.Fatalf("stored answer: hit %v, %v", inst != nil && inst.AnswerHit, err)
	}
	if j.shared != stored {
		t.Error("the answered job keeps a result other than the Solver's stored answer")
	}
	got, err := m.Result(answered.ID)
	if err != nil || got != stored {
		t.Errorf("Result of the answered job = %p, %v; want the stored answer %p", got, err, stored)
	}
	copied, err := m.Result(fresh.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(copied, got) {
		t.Errorf("solved job's Result %+v differs from the answered job's %+v", copied, got)
	}
}

func TestJobTraceSurvivesPooledReuse(t *testing.T) {
	m := newManager(t, Config{Workers: 1, Traces: obs.NewRing(8)})
	first := runJob(t, m, Request{Body: testBody(t, 1), Params: Params{K: 2, Oracle: "greedy-mindeg"}, RequestID: "first"})
	if first.Trace == nil || len(first.Trace.Spans) == 0 {
		t.Fatalf("first job trace = %+v", first.Trace)
	}
	before, err := json.Marshal(first.Trace)
	if err != nil {
		t.Fatal(err)
	}
	second := runJob(t, m, Request{Body: testBody(t, 2), Params: Params{K: 2, Oracle: "greedy-mindeg"}, RequestID: "second"})
	if second.Trace == nil || second.Trace.RequestID != "second" {
		t.Fatalf("second job trace = %+v", second.Trace)
	}
	again, err := m.Get(first.ID)
	if err != nil {
		t.Fatal(err)
	}
	after, err := json.Marshal(again.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("first job's trace changed after the next job ran:\nbefore %s\nafter  %s", before, after)
	}
}
