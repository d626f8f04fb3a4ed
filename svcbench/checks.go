package main

// checks.go verifies a phase's outputs. A job counts as failed when it
// errored or when any check on the result it received fails:
//
//   - the returned plan binds with the workload's function registry;
//   - the document's fingerprint matches the plan it decodes to;
//   - re-estimating the plan gives exactly the returned cost, and that cost
//     is no higher than the input's;
//   - every result for one key carries byte-identical plan bytes, whichever
//     replica produced it.
//
// Workload-level checks add failures too: warm-hits must be answered from
// the store alone, and cluster-mix must compute each distinct key once.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"sort"

	"github.com/stubby-mr/stubby"
	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/wf"
)

// verdict is the outcome of checking one distinct result body.
type verdict struct {
	fingerprint string
	plan        [sha256.Size]byte // digest of the decoded plan's encoding
	cost        float64
	err         error
}

func (e *env) checkBody(k key, body []byte) verdict {
	in := e.ins[k.in]
	doc, err := planio.DecodeResultBound(body, in.reg)
	if err != nil {
		return verdict{err: fmt.Errorf("result does not decode with the workload's registry: %w", err)}
	}
	v := verdict{fingerprint: doc.Fingerprint, cost: doc.EstimatedCost}
	if got := wf.FingerprintWorkflow(doc.Plan).String(); doc.Fingerprint == "" || got != doc.Fingerprint {
		v.err = fmt.Errorf("fingerprint field %q, decoded plan has %s", doc.Fingerprint, got)
		return v
	}
	enc, err := planio.Encode(doc.Plan)
	if err != nil {
		v.err = fmt.Errorf("re-encode plan: %w", err)
		return v
	}
	v.plan = sha256.Sum256(enc)
	est, err := stubby.EstimateCost(in.cluster, doc.Plan)
	switch {
	case err != nil:
		v.err = fmt.Errorf("re-estimate plan: %w", err)
	case est.Makespan != doc.EstimatedCost:
		v.err = fmt.Errorf("returned cost %v, re-estimate gives %v", doc.EstimatedCost, est.Makespan)
	case doc.EstimatedCost > in.cost:
		v.err = fmt.Errorf("returned cost %v exceeds the input's %v", doc.EstimatedCost, in.cost)
	}
	return v
}

// verify checks every job of the phase and the workload-level invariants,
// and fills ph.failed, ph.notes and ph.digest.
func (e *env) verify(ph *phase) {
	verdicts := make(map[key]map[uint64]verdict)
	for k, bodies := range e.bodies {
		vs := make(map[uint64]verdict)
		plans := make(map[[sha256.Size]byte]bool)
		for h, path := range bodies {
			var v verdict
			if body, err := os.ReadFile(path); err != nil {
				v.err = err
			} else {
				v = e.checkBody(k, body)
			}
			if v.err == nil {
				plans[v.plan] = true
			}
			vs[h] = v
		}
		if len(plans) > 1 {
			for h, v := range vs {
				if v.err == nil {
					v.err = fmt.Errorf("%d different plans for one key", len(plans))
					vs[h] = v
				}
			}
		}
		verdicts[k] = vs
	}
	for _, j := range ph.jobs {
		err := j.err
		if err == nil {
			v := verdicts[j.key][j.body]
			if err = v.err; err == nil && j.cost != v.cost {
				err = fmt.Errorf("client decoded cost %v, document says %v", j.cost, v.cost)
			}
		}
		if err != nil {
			ph.failed++
			ph.note("%s seed %d: %v", e.abbr(j.key), j.key.seed, err)
		}
	}

	st := ph.storeDelta()
	switch e.wl.name {
	case "warm-hits":
		if st.Computes != 0 || st.Misses != 0 {
			ph.failed += max(int(st.Computes), 1)
			ph.note("warm-hits: %d store misses and %d computes, want none", st.Misses, st.Computes)
		}
	case "cluster-mix", "cold-search":
		if distinct := len(e.sent); int(st.Computes) != distinct {
			ph.failed += max(absDiff(int(st.Computes), distinct), 1)
			ph.note("%s: %d computes for %d distinct keys", e.wl.name, st.Computes, distinct)
		}
	}
	ph.failed = min(ph.failed, len(ph.jobs))
	ph.digest, ph.digestKeys = e.digest(verdicts)
}

// digest hashes (key → plan fingerprint) over the keys every run of the
// workload submits first, so repeat runs of one commit and seed print the
// same digest.
func (e *env) digest(verdicts map[key]map[uint64]verdict) (string, string) {
	want := e.digestKeys()
	var lines []string
	for _, k := range want {
		for _, v := range verdicts[k] {
			lines = append(lines, fmt.Sprintf("%s seed=%d %s\n", e.abbr(k), k.seed, v.fingerprint))
			break
		}
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
	}
	return hex.EncodeToString(h.Sum(nil))[:16], fmt.Sprintf("%d/%d", len(lines), len(want))
}

// digestKeys are the first round of keys the workload submits.
func (e *env) digestKeys() []key {
	var ks []key
	switch e.wl.name {
	case "cold-search":
		for n := range e.ins {
			ks = append(ks, e.coldKey(n))
		}
	case "warm-hits":
		for i := range e.ins {
			ks = append(ks, e.warmKey(i))
		}
	case "cluster-mix":
		for c := range e.freshInputs() {
			ks = append(ks, e.clusterKey(c))
		}
	}
	return ks
}

func (e *env) abbr(k key) string { return e.ins[k.in].abbr }

func absDiff(a, b int) int {
	if a > b {
		return a - b
	}
	return b - a
}
