package main

// replay.go times single layers from outside after a traced phase, by
// replaying the phase's own inputs and result documents through the
// layers' exported calls: the wire codec, fingerprinting, a journal with
// fsync on, and a plan store.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/stubby-mr/stubby/internal/planio"
	"github.com/stubby-mr/stubby/internal/planstore"
	"github.com/stubby-mr/stubby/internal/service"
	"github.com/stubby-mr/stubby/internal/wf"
	"github.com/stubby-mr/stubby/internal/whatif/estcache"
)

// replayReps is how often each replayed call runs per document.
const replayReps = 3

// replayStats are median milliseconds per call, except allocMiBPerDoc.
type replayStats struct {
	decodeRequest, encodeRequest      float64
	encodeResult, decodeResultBound   float64
	allocMiBPerDoc                    float64
	fingerprint                       float64
	journalAppend, storeGet, storePut float64
}

// timeCall runs fn replayReps times, appending each duration in ms.
func timeCall(into *[]float64, fn func() error) error {
	for r := 0; r < replayReps; r++ {
		start := time.Now()
		if err := fn(); err != nil {
			return err
		}
		*into = append(*into, msOf(time.Since(start)))
	}
	return nil
}

// replay times every layer call on each input's request and on one result
// body per input the phase received.
func (e *env) replay() (replayStats, error) {
	var decReq, encReq, encRes, decRes, fp, appends, gets, puts, alloc []float64
	journal, _, err := service.OpenJournal(filepath.Join(e.dir, "replay-journal"))
	if err != nil {
		return replayStats{}, err
	}
	defer journal.Close()
	journal.SetSync(true)
	store, err := planstore.Open(filepath.Join(e.dir, "replay-store"))
	if err != nil {
		return replayStats{}, err
	}
	defer store.Close()

	bodies := e.bodyPerInput()
	for i, in := range e.ins {
		k := e.warmKey(i)
		var req []byte
		err := timeCall(&encReq, func() (err error) {
			req, err = planio.EncodeRequest(&planio.Request{Seed: k.seed, Cluster: in.cluster, Plan: in.workflow})
			return err
		})
		if err == nil {
			err = timeCall(&decReq, func() error { _, err := planio.DecodeRequest(req); return err })
		}
		if err == nil {
			err = timeCall(&fp, func() error { wf.FingerprintWorkflow(in.workflow); return nil })
		}
		n := 0
		if err == nil {
			err = timeCall(&appends, func() error {
				n++
				return journal.AppendSubmit(fmt.Sprintf("replay-%d-%d", i, n), req, 0)
			})
		}
		if err != nil {
			return replayStats{}, fmt.Errorf("replay %s: %w", in.abbr, err)
		}
		if bodies[i] == "" {
			continue
		}
		body, err := os.ReadFile(bodies[i])
		if err != nil {
			return replayStats{}, err
		}
		var doc *planio.Result
		var ms runtime.MemStats
		err = timeCall(&decRes, func() (err error) {
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			doc, err = planio.DecodeResultBound(body, in.reg)
			runtime.ReadMemStats(&ms)
			alloc = append(alloc, float64(ms.TotalAlloc-before)/(1<<20))
			return err
		})
		if err == nil {
			err = timeCall(&encRes, func() error { _, err := planio.EncodeResult(doc); return err })
		}
		sk := planstore.Key{Plan: wf.FingerprintWorkflow(in.workflow),
			Cluster: estcache.ClusterFingerprint(in.cluster), Planner: "stubby", Seed: k.seed}
		if err == nil {
			err = timeCall(&puts, func() error { return store.Put(sk, body) })
		}
		if err == nil {
			err = timeCall(&gets, func() error {
				if _, ok, err := store.Get(sk); err != nil || !ok {
					return fmt.Errorf("store get after put: hit=%v err=%v", ok, err)
				}
				return nil
			})
		}
		if err != nil {
			return replayStats{}, fmt.Errorf("replay %s: %w", in.abbr, err)
		}
	}
	return replayStats{
		decodeRequest: median(decReq), encodeRequest: median(encReq),
		encodeResult: median(encRes), decodeResultBound: median(decRes),
		allocMiBPerDoc: median(alloc), fingerprint: median(fp),
		journalAppend: median(appends), storeGet: median(gets), storePut: median(puts),
	}, nil
}

// bodyPerInput picks, for each input, the spooled result body of the
// first job that completed on it.
func (e *env) bodyPerInput() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.ins))
	for _, j := range e.jobs {
		if j.err == nil && out[j.key.in] == "" {
			out[j.key.in] = e.bodies[j.key][j.body]
		}
	}
	return out
}
