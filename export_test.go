package stubby

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
)

// Test-only bridges from the external test package to the server's wire
// encoders, so the golden suite can pin documents whose inputs (counter
// values, event payloads, robustness reports) a live server cannot be
// steered into producing deterministically.

// EncodeStatszForTest renders st as the /statsz document handleStatsz
// writes for a server whose subsystems report exactly these counters.
func EncodeStatszForTest(st *ServiceStats) []byte {
	return encodeLine(&statszDoc{
		Status: st.Status,
		Queue: queueDoc{Workers: st.Workers, Depth: st.QueueDepth,
			Queued: st.Queued, Busy: st.Busy},
		EstCache:     st.EstimateCache,
		PlanStore:    st.PlanStore,
		ReuseCatalog: st.ReuseCatalog,
		Journal:      st.Journal,
		Cluster:      st.Cluster,
	})
}

// EncodeEventForTest renders ev as the NDJSON line handleEvents streams.
func EncodeEventForTest(ev Event) []byte { return encodeLine(eventToDoc(ev)) }

// EncodeResultForTest renders res as the result document handleResult
// serves.
func EncodeResultForTest(res *Result) ([]byte, error) { return encodeResult(res) }

// encodeLine encodes v the way writeJSON and handleEvents do.
func encodeLine(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// JobResultForTest waits for the server-side job id and returns its
// in-process Result, the reference a wire-decoded Result is compared with.
func (s *Server) JobResultForTest(ctx context.Context, id string) (*Result, error) {
	s.mu.RLock()
	h, ok := s.jobs[id]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("unknown job %q", id)
	}
	return h.Wait(ctx)
}
