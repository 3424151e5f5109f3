package jobs

// stats_test.go pins the wait/run latency accounting under concurrency:
// parallel submitters and cancellers hammer a small worker pool while a
// reader polls Stats, and at quiescence the started/finished counters
// must reconcile exactly with the terminal outcomes. Run under -race in
// CI, this is the guard against torn or misattributed latency sums.

import (
	"sync"
	"testing"
)

func TestStatsWaitRunAccountingUnderLoad(t *testing.T) {
	m := newManager(t, Config{Workers: 3, QueueCap: 64})

	const (
		submitters   = 4
		perSubmitter = 8
	)
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []string
	)
	// Parallel submitters with distinct instances (no dedupe), plus a
	// canceller racing the workers and a Stats poller racing everything.
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				body := testBody(t, int64(1000+s*perSubmitter+i))
				info, accepted, err := m.Submit(Request{Body: body, Params: Params{K: 2}})
				if err != nil || !accepted {
					t.Errorf("submit: accepted=%v err=%v", accepted, err)
					return
				}
				mu.Lock()
				ids = append(ids, info.ID)
				mu.Unlock()
				if i%3 == 0 {
					// Racing cancellation: may land while queued, running,
					// or already done — all are legal.
					_, _ = m.Cancel(info.ID)
				}
			}
		}(s)
	}
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 1000; i++ {
			st := m.Stats()
			if st.Started < st.Finished {
				t.Errorf("finished (%d) overtook started (%d)", st.Finished, st.Started)
				return
			}
			if st.Started > st.Submitted {
				t.Errorf("started (%d) overtook submitted (%d)", st.Started, st.Submitted)
				return
			}
			if st.WaitSumMS < 0 || st.RunSumMS < 0 {
				t.Errorf("negative latency sums: %+v", st)
				return
			}
		}
	}()
	wg.Wait()
	<-pollDone

	for _, id := range ids {
		if _, err := m.Await(awaitCtx(t), id); err != nil {
			t.Fatalf("await %s: %v", id, err)
		}
	}

	st := m.Stats()
	total := submitters * perSubmitter
	if st.Submitted != uint64(total) {
		t.Fatalf("submitted = %d, want %d", st.Submitted, total)
	}
	// Every job is terminal, so every started job has finished its run.
	if st.Started != st.Finished {
		t.Fatalf("started (%d) != finished (%d) at quiescence", st.Started, st.Finished)
	}
	// Jobs cancelled while still queued never start; everything else
	// does. The split must cover all terminal outcomes exactly.
	if st.Completed+st.Failed+st.Cancelled != uint64(total) {
		t.Fatalf("terminal outcomes %d+%d+%d don't cover %d jobs",
			st.Completed, st.Failed, st.Cancelled, total)
	}
	if st.Started > uint64(total) {
		t.Fatalf("started (%d) exceeds submissions (%d)", st.Started, total)
	}
	if st.Started < st.Completed {
		t.Fatalf("completed (%d) jobs that never started (%d)", st.Completed, st.Started)
	}
	if st.Completed == 0 {
		t.Fatal("no job completed — cancellation starved the test")
	}
	if st.RunSumMS <= 0 {
		t.Fatalf("finished %d jobs with zero run-time sum", st.Finished)
	}
	if st.MeanRunMS() <= 0 || st.MeanRunMS() != st.RunSumMS/float64(st.Finished) {
		t.Fatalf("mean run %.4f inconsistent with sum %.4f / %d", st.MeanRunMS(), st.RunSumMS, st.Finished)
	}
	if st.MeanWaitMS() != st.WaitSumMS/float64(st.Started) {
		t.Fatalf("mean wait %.4f inconsistent with sum %.4f / %d", st.MeanWaitMS(), st.WaitSumMS, st.Started)
	}
	if st.Running != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges not drained at quiescence: %+v", st)
	}
}

func TestStatsMeansEmpty(t *testing.T) {
	var st Stats
	if st.MeanWaitMS() != 0 || st.MeanRunMS() != 0 {
		t.Fatalf("zero-value Stats must report zero means: %+v", st)
	}
}
