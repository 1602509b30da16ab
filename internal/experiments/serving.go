package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"hetopt/internal/serve"
	"hetopt/internal/tables"
)

// ServingRow is one worker-count row of the serving-throughput table.
type ServingRow struct {
	// Workers is the pool size of the measured server.
	Workers int
	// Jobs is the number of submitted requests, Distinct how many
	// canonical keys they collapse to.
	Jobs, Distinct int
	// StoreHits counts jobs answered without paying for a run; the
	// single-flight store guarantees Jobs - Distinct of them.
	StoreHits int
	// HitRatio is StoreHits / Jobs.
	HitRatio float64
	// ElapsedMS is the wall-clock from first submission to last
	// completion; ReqPerSec the resulting throughput.
	ElapsedMS float64
	ReqPerSec float64
	// MeanLatencyMS is the server-side mean job service time (store
	// hits included, which is what makes the warm-start speedup show).
	MeanLatencyMS float64
	// Inline counts submissions answered on the POST itself (warm hits
	// served from the store with no registry entry and no poll).
	Inline int
	// WarmMeanMS / ColdMeanMS split MeanLatencyMS into the warm-hit
	// fast path and the cold-miss pool path.
	WarmMeanMS float64
	ColdMeanMS float64
}

// ServingThroughputResult is the serving-layer scaling experiment.
type ServingThroughputResult struct {
	Rows []ServingRow
	// Iterations is the per-job search budget used.
	Iterations int
}

// ServingThroughput measures the tuning service end to end over real
// HTTP: for each worker count a fresh server receives jobs = distinct *
// repeats SAM tune requests (seeds 0..distinct-1, cycled), and the
// experiment records throughput and the warm-start hit ratio. The
// store's single-flight discipline makes the hit accounting
// deterministic — exactly distinct runs are paid, every other submission
// is a hit. How many hits are answered inline on the POST depends on
// whether a repeat arrives after its first run finished, so Inline, like
// elapsed time and requests/sec, follows scheduling and the machine.
func (s *Suite) ServingThroughput(workerCounts []int, distinct, repeats, iterations int) (*ServingThroughputResult, error) {
	if distinct < 1 || repeats < 1 {
		return nil, fmt.Errorf("experiments: serving throughput needs distinct >= 1 and repeats >= 1")
	}
	total := distinct * repeats
	res := &ServingThroughputResult{Iterations: iterations}
	for _, workers := range workerCounts {
		srv := serve.New(serve.Options{
			Platform:  s.Platform,
			Schema:    s.Schema,
			Workers:   workers,
			QueueSize: total + 8,
		})
		ts := httptest.NewServer(srv)
		row, err := servingRound(srv, ts.URL, workers, distinct, total, iterations)
		ts.Close()
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// servingRound drives one server instance through the request mix.
func servingRound(srv *serve.Server, baseURL string, workers, distinct, total, iterations int) (ServingRow, error) {
	start := time.Now()
	ids := make([]string, 0, total)
	inline := 0
	for i := 0; i < total; i++ {
		req := serve.TuneRequest{
			Method:     "sam",
			Iterations: iterations,
			Seed:       int64(i % distinct),
		}
		body, err := json.Marshal(req)
		if err != nil {
			return ServingRow{}, err
		}
		resp, err := http.Post(baseURL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return ServingRow{}, fmt.Errorf("experiments: submitting job %d: %w", i, err)
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return ServingRow{}, fmt.Errorf("experiments: decoding job %d: %w", i, err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return ServingRow{}, fmt.Errorf("experiments: job %d refused with status %d", i, resp.StatusCode)
		}
		if st.ID == "" {
			// Warm inline completion: the POST carried the terminal
			// result itself — nothing registered, nothing to poll.
			if st.State != serve.JobDone {
				return ServingRow{}, fmt.Errorf("experiments: inline job %d not done: %s", i, st.State)
			}
			inline++
			continue
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		if err := waitDone(baseURL, id); err != nil {
			return ServingRow{}, err
		}
	}
	elapsed := time.Since(start)

	m := srv.Metrics()
	row := ServingRow{
		Workers:       workers,
		Jobs:          total,
		Distinct:      distinct,
		StoreHits:     int(m.Jobs.StoreHits),
		HitRatio:      float64(m.Jobs.StoreHits) / float64(total),
		ElapsedMS:     float64(elapsed) / float64(time.Millisecond),
		MeanLatencyMS: m.Latency.MeanMS,
		Inline:        inline,
		WarmMeanMS:    m.Latency.Warm.MeanMS,
		ColdMeanMS:    m.Latency.Cold.MeanMS,
	}
	if elapsed > 0 {
		row.ReqPerSec = float64(total) / elapsed.Seconds()
	}
	if int(m.Jobs.Completed) != total {
		return ServingRow{}, fmt.Errorf("experiments: %d of %d jobs completed", m.Jobs.Completed, total)
	}
	return row, nil
}

// waitDone polls one job to completion.
func waitDone(baseURL, id string) error {
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/v1/jobs/" + id)
		if err != nil {
			return err
		}
		var st serve.JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch st.State {
		case serve.JobDone:
			return nil
		case serve.JobFailed:
			return fmt.Errorf("experiments: job %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("experiments: job %s stuck in state %s", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// RenderServingThroughput formats the serving-layer scaling table.
func RenderServingThroughput(res *ServingThroughputResult) string {
	tb := tables.New(fmt.Sprintf(
		"Extension: tuning-service throughput (SAM, %d iterations per job; jobs collapse onto %d distinct requests, warm-start store absorbs the rest)",
		res.Iterations, res.Rows[0].Distinct),
		"workers", "jobs", "distinct", "store hits", "inline", "hit ratio", "elapsed ms", "req/s", "warm mean ms", "cold mean ms")
	for _, r := range res.Rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Workers),
			fmt.Sprintf("%d", r.Jobs),
			fmt.Sprintf("%d", r.Distinct),
			fmt.Sprintf("%d", r.StoreHits),
			fmt.Sprintf("%d", r.Inline),
			tables.F(r.HitRatio, 3),
			tables.F(r.ElapsedMS, 1),
			tables.F(r.ReqPerSec, 1),
			tables.F(r.WarmMeanMS, 3),
			tables.F(r.ColdMeanMS, 3),
		)
	}
	return tb.String() +
		"(hit accounting is deterministic: single-flight guarantees each distinct request is paid exactly once;\n" +
		" inline counts the hits served on the POST itself, which depends on whether a repeat arrives after its\n" +
		" first run finished, so inline, elapsed/req-s and the warm/cold latency split follow wall-clock\n" +
		" scheduling and vary from run to run)\n"
}
