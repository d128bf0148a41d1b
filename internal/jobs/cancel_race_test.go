package jobs

import (
	"context"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestCancelRacingBatchWindowNeverOrphans hammers cancel against
// dispatch: many rounds of jobs, each cancelled from a racing goroutine
// at a random point — while still queued, at the moment the dispatcher
// starts it, or mid-run. Run under -race this doubles as a data-race
// probe. The invariant: after a full drain no job may be left in the
// running state — every one is terminal, or still queued and never
// started.
func TestCancelRacingBatchWindowNeverOrphans(t *testing.T) {
	const rounds = 30
	const jobsPerRound = 4
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < rounds; round++ {
		q, err := NewQueue(Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := NewScheduler(q, SchedulerOptions{
			Workers: 2,
			Exec: func(ctx context.Context, j Job) (json.RawMessage, *Failure) {
				select {
				case <-ctx.Done():
					return nil, &Failure{Code: "canceled", Message: "ctx cut", Status: 503}
				default:
					return j.Spec.Payload, nil
				}
			},
		})
		ids := make([]string, 0, jobsPerRound)
		for i := 0; i < jobsPerRound; i++ {
			j, err := q.Submit(Spec{Type: "mitigate"})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
		}
		s.Start()
		var wg sync.WaitGroup
		for _, id := range ids {
			id := id
			delay := time.Duration(rng.Intn(500)) * time.Microsecond
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(delay)
				// ErrTerminal just means the run beat us; fine.
				_, _ = q.Cancel(id)
			}()
		}
		wg.Wait()
		s.Drain(context.Background())
		for _, id := range ids {
			j, ok := q.Get(id)
			if !ok {
				t.Fatalf("round %d: job %s vanished", round, id)
			}
			switch j.State {
			case StateDone, StateCancelled, StateFailed:
				// Clean outcomes: ran to completion, cancelled while
				// queued, or cut mid-run.
			case StateQueued:
				// Never picked before drain stopped dispatch — but then
				// the cancel must have been requeue-raced, never lost
				// silently alongside a started run.
			default:
				t.Fatalf("round %d: job %s left in state %v after drain", round, id, j.State)
			}
			if j.State == StateRunning {
				t.Fatalf("round %d: job %s is a running orphan after drain", round, id)
			}
		}
	}
}
