package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"biasmit/internal/api"
	"biasmit/internal/client"
)

// outcome is what one op returned, with its client-observed latency.
type outcome struct {
	Op      Op
	Latency time.Duration
	// TraceID is the ID the harness assigned (traced pass only).
	TraceID string
	// Mitigate is a sync mitigate response or a job's decoded result.
	Mitigate     *api.MitigateResponse
	Characterize *api.CharacterizeResponse
	Err          error
}

func (o *outcome) ms() float64 { return o.Latency.Seconds() * 1e3 }

// conn is one client connection: its own transport, so each tenant's
// closed loop holds exactly one connection.
type conn struct {
	c  *client.Client
	tr *http.Transport
}

func newConn(addr, apiKey string) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	opts := []client.Option{client.WithHTTPClient(&http.Client{Transport: tr})}
	if apiKey != "" {
		opts = append(opts, client.WithAPIKey(apiKey))
	}
	return &conn{c: client.New("http://"+addr, opts...), tr: tr}
}

func (cn *conn) close() { cn.tr.CloseIdleConnections() }

// do runs one op and times it. With traced set, the op carries a fresh
// trace ID that the daemon adopts, so its spans can be found later.
func (cn *conn) do(ctx context.Context, op Op, traced bool) outcome {
	out := outcome{Op: op}
	if traced {
		ctx, out.TraceID = client.WithTraceID(ctx, "")
	}
	start := time.Now()
	out.Err = cn.exec(ctx, op, &out)
	out.Latency = time.Since(start)
	return out
}

func (cn *conn) exec(ctx context.Context, op Op, out *outcome) error {
	switch op.Kind {
	case opMitigate:
		resp, err := cn.c.Mitigate(ctx, op.Mitigate)
		out.Mitigate = resp
		return err
	case opJob:
		sub, err := cn.c.SubmitJob(ctx, &api.JobSubmitRequest{Type: api.JobTypeMitigate, Mitigate: op.Mitigate})
		if err != nil {
			return err
		}
		done, err := cn.c.WaitJob(ctx, sub.Job.ID)
		if err != nil {
			return err
		}
		if done.Job.State != api.JobStateDone {
			return fmt.Errorf("job %s ended %s: %+v", done.Job.ID, done.Job.State, done.Job.Error)
		}
		var res api.MitigateResponse
		if err := json.Unmarshal(done.Result, &res); err != nil {
			return fmt.Errorf("decoding job %s result: %w", done.Job.ID, err)
		}
		out.Mitigate = &res
		return nil
	case opCharacterize:
		resp, err := cn.c.Characterize(ctx, op.Characterize)
		out.Characterize = resp
		return err
	case opListJobs:
		cursor := ""
		for page := 0; page < 2; page++ {
			resp, err := cn.c.JobsPage(ctx, "", "", op.Page, cursor)
			if err != nil {
				return err
			}
			if len(resp.Jobs) == 0 || len(resp.Jobs) > op.Page {
				return fmt.Errorf("job page of %d entries for limit %d", len(resp.Jobs), op.Page)
			}
			if cursor = resp.NextCursor; cursor == "" {
				break
			}
		}
		return nil
	case opListProfiles:
		cursor := ""
		for {
			resp, err := cn.c.ProfilesPage(ctx, op.Page, cursor)
			if err != nil {
				return err
			}
			if len(resp.Profiles) == 0 || len(resp.Profiles) > op.Page {
				return fmt.Errorf("profile page of %d entries for limit %d", len(resp.Profiles), op.Page)
			}
			if cursor = resp.NextCursor; cursor == "" {
				return nil
			}
		}
	}
	return fmt.Errorf("unknown op kind %q", op.Kind)
}

// runLoops runs one closed loop per connection over its stream. The
// streams are cut into rounds of roundLen[i] ops; the loops meet after
// every round, and between rounds, with nothing in flight, between()
// runs. It returns every outcome and the wall time of the rounds alone.
func runLoops(ctx context.Context, conns []*conn, streams [][]Op, roundLen []int, traced bool, between func()) ([][]outcome, time.Duration) {
	outs := make([][]outcome, len(streams))
	for i := range streams {
		outs[i] = make([]outcome, 0, len(streams[i]))
	}
	rounds := len(streams[0]) / roundLen[0]
	var wall time.Duration
	for r := 0; r < rounds; r++ {
		if r > 0 {
			between()
		}
		start := time.Now()
		var wg sync.WaitGroup
		var failed atomic.Bool
		for i := range streams {
			wg.Add(1)
			go func(i int, ops []Op) {
				defer wg.Done()
				for _, op := range ops {
					o := conns[i].do(ctx, op, traced)
					outs[i] = append(outs[i], o)
					if o.Err != nil {
						failed.Store(true) // the run fails; stop loading the daemon
						return
					}
				}
			}(i, streams[i][r*roundLen[i]:(r+1)*roundLen[i]])
		}
		wg.Wait()
		wall += time.Since(start)
		if failed.Load() {
			break
		}
	}
	return outs, wall
}
