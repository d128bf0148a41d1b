package main

import (
	"encoding/json"
	"fmt"
	"time"

	"biasmit/internal/api"
)

// reqKey is a mitigate request's identity: every field the workloads
// set, so two requests with one key must get the same answer.
func reqKey(r *api.MitigateRequest) string {
	return fmt.Sprintf("%s/%s/%s/%d/%d", r.Machine, r.Benchmark, r.Policy, r.Shots, r.Seed)
}

// checkMitigate checks one mitigate answer on its own: it echoes the
// request, ran the requested policy at full tier without degrading,
// and its listed outcome counts fit the shot budget.
func checkMitigate(req *api.MitigateRequest, resp *api.MitigateResponse) error {
	switch {
	case resp.Machine != req.Machine || resp.Benchmark != req.Benchmark || resp.Policy != req.Policy ||
		resp.Shots != req.Shots || resp.Seed != req.Seed:
		return fmt.Errorf("response %s/%s/%s/%d/%d does not echo the request",
			resp.Machine, resp.Benchmark, resp.Policy, resp.Shots, resp.Seed)
	case resp.ServedPolicy != req.Policy:
		return fmt.Errorf("served %s for %s", resp.ServedPolicy, req.Policy)
	case resp.BrownoutTier != 0:
		return fmt.Errorf("brownout tier %d", resp.BrownoutTier)
	case resp.Degraded || (resp.Profile != nil && resp.Profile.Degraded):
		return fmt.Errorf("degraded response")
	case len(resp.Outcomes) == 0:
		return fmt.Errorf("no outcomes")
	}
	sum := 0
	for _, o := range resp.Outcomes {
		if o.Count < 0 || o.Count > req.Shots {
			return fmt.Errorf("outcome %s count %d outside [0, %d]", o.Outcome, o.Count, req.Shots)
		}
		sum += o.Count
	}
	if sum > req.Shots {
		return fmt.Errorf("listed counts sum to %d over %d shots", sum, req.Shots)
	}
	return nil
}

// normalized marshals a response without its per-request envelope and
// cache flags. Two answers for one cached entry must agree on it byte
// for byte, elapsed_ms included.
func normalized(resp *api.MitigateResponse) string {
	c := *resp
	c.Envelope = api.Envelope{}
	c.CacheHit, c.Coalesced = false, false
	data, _ := json.Marshal(&c) // plain data: cannot fail
	return string(data)
}

// fingerprint is normalized minus what depends on when the answer was
// computed: elapsed time and the profile's learned-at time and age.
// Every computation of one request, in any run at the same seed, must
// agree on it.
func fingerprint(resp *api.MitigateResponse) string {
	c := *resp
	c.Envelope = api.Envelope{}
	c.CacheHit, c.Coalesced = false, false
	c.ElapsedMS = 0
	if c.Profile != nil {
		p := *c.Profile
		p.LearnedAt, p.AgeMS = time.Time{}, 0
		c.Profile = &p
	}
	data, _ := json.Marshal(&c)
	return string(data)
}

// checker accumulates the cross-response checks of a run: every answer
// to one request agrees with the first on its fingerprint, and every
// cache hit replays the exact bytes of a computation seen in the same
// pass.
type checker struct {
	first    map[string]string
	computed map[string]map[string]bool // per pass: key -> normalized computations
	hits     []hitRecord
}

type hitRecord struct {
	pass int
	key  string
	norm string
}

func newChecker() *checker {
	return &checker{first: map[string]string{}, computed: map[string]map[string]bool{}}
}

// add records one mitigate answer (sync or async) from pass.
func (c *checker) add(pass int, req *api.MitigateRequest, resp *api.MitigateResponse) error {
	if err := checkMitigate(req, resp); err != nil {
		return fmt.Errorf("%s: %w", reqKey(req), err)
	}
	key := reqKey(req)
	fp := fingerprint(resp)
	if first, ok := c.first[key]; !ok {
		c.first[key] = fp
	} else if fp != first {
		return fmt.Errorf("%s: answer differs from the first computation:\n  first %s\n  now   %s", key, first, fp)
	}
	norm := normalized(resp)
	if resp.CacheHit {
		c.hits = append(c.hits, hitRecord{pass, key, norm})
		return nil
	}
	pk := fmt.Sprintf("%d|%s", pass, key)
	if c.computed[pk] == nil {
		c.computed[pk] = map[string]bool{}
	}
	c.computed[pk][norm] = true
	return nil
}

// finish checks every recorded hit against the computations of its pass.
func (c *checker) finish() error {
	for _, h := range c.hits {
		if !c.computed[fmt.Sprintf("%d|%s", h.pass, h.key)][h.norm] {
			return fmt.Errorf("%s: cache hit replays bytes no computation in the run produced", h.key)
		}
	}
	return nil
}

// checkCharacterize checks a characterization answer against its request.
func checkCharacterize(req *api.CharacterizeRequest, resp *api.CharacterizeResponse, wantCached bool) error {
	switch {
	case resp.Profile.Machine != req.Machine || (req.Qubits != 0 && resp.Profile.Width != req.Qubits):
		return fmt.Errorf("characterize %s/%d answered for %s/%d", req.Machine, req.Qubits, resp.Profile.Machine, resp.Profile.Width)
	case resp.Degraded || resp.Profile.Stale:
		return fmt.Errorf("characterize %s/%d: degraded or stale profile", req.Machine, req.Qubits)
	case req.Force && resp.Cached:
		return fmt.Errorf("forced characterize %s/%d served from cache", req.Machine, req.Qubits)
	case !req.Force && wantCached && !resp.Cached:
		return fmt.Errorf("characterize %s/%d missed a warm profile", req.Machine, req.Qubits)
	case len(resp.Strengths) != 1<<resp.Profile.Width:
		return fmt.Errorf("characterize %s/%d: %d strengths", req.Machine, req.Qubits, len(resp.Strengths))
	}
	return nil
}
