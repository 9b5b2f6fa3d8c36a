package availd

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// JobState is an async job's lifecycle state.
type JobState string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobState = "queued"
	// JobRunning: a worker is evaluating.
	JobRunning JobState = "running"
	// JobDone: finished; Result holds the body.
	JobDone JobState = "done"
	// JobFailed: the evaluation errored; Error holds the message.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled before or during evaluation.
	JobCancelled JobState = "cancelled"
)

// Job is the wire snapshot of an async job.
type Job struct {
	ID      string          `json:"id"`
	Kind    string          `json:"kind"`
	State   JobState        `json:"state"`
	Request json.RawMessage `json:"request,omitempty"`
	Result  json.RawMessage `json:"result,omitempty"`
	Error   string          `json:"error,omitempty"`
}

// job is the engine's mutable record.
type job struct {
	id      string
	kind    string
	request []byte
	// run is the evaluation closure; it is dropped once the job is terminal
	// so a finished job does not pin the parsed spec it closes over.
	run func(context.Context) ([]byte, error)

	mu     sync.Mutex
	state  JobState
	result []byte
	err    string
	cancel context.CancelFunc
	done   chan struct{}
}

func (j *job) snapshot() Job {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Job{
		ID:      j.id,
		Kind:    j.kind,
		State:   j.state,
		Request: j.request,
		Result:  j.result,
		Error:   j.err,
	}
}

// Engine runs jobs asynchronously on a fixed worker pool behind a bounded
// queue. A full queue sheds the submission with ErrBusy — the M/M/i/K
// admission story applied to the service itself: i workers, a K-deep buffer,
// and blocked customers cleared with 429 instead of left to pile up.
type Engine struct {
	queue  chan *job
	base   context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
	seq  int64

	submitted atomic.Int64
	shed      atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cancelled atomic.Int64
}

// NewEngine starts workers goroutines behind a queue of the given capacity
// (minimums of 1 each apply).
func NewEngine(workers, capacity int) *Engine {
	if workers < 1 {
		workers = 1
	}
	if capacity < 1 {
		capacity = 1
	}
	base, cancel := context.WithCancel(context.Background())
	e := &Engine{
		queue:  make(chan *job, capacity),
		base:   base,
		cancel: cancel,
		jobs:   make(map[string]*job),
	}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e
}

// Close cancels every running job, stops the workers and waits for them,
// then fails over any job still sitting in the queue to JobCancelled. Without
// the drain a queued job's done channel never closes, and a Wait on it blocks
// until the caller's context expires — or forever, if it has none.
func (e *Engine) Close() {
	e.cancel()
	e.wg.Wait()
	for {
		select {
		case j := <-e.queue:
			j.mu.Lock()
			if j.state == JobQueued {
				j.state = JobCancelled
				e.cancelled.Add(1)
				close(j.done)
			}
			j.run = nil
			j.mu.Unlock()
		default:
			return
		}
	}
}

func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.base.Done():
			return
		case j := <-e.queue:
			e.execute(j)
		}
	}
}

func (e *Engine) execute(j *job) {
	j.mu.Lock()
	if j.state != JobQueued {
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(e.base)
	j.state = JobRunning
	j.cancel = cancel
	run := j.run
	j.mu.Unlock()
	defer cancel()

	result, err := run(ctx)

	j.mu.Lock()
	defer j.mu.Unlock()
	j.run = nil
	switch {
	case j.state == JobCancelled || ctx.Err() != nil:
		// Cancel won the race (or shutdown): the result is discarded.
		j.state = JobCancelled
		e.cancelled.Add(1)
	case err != nil:
		j.state = JobFailed
		j.err = err.Error()
		e.failed.Add(1)
	default:
		j.state = JobDone
		j.result = result
		e.completed.Add(1)
	}
	close(j.done)
}

// Submit enqueues a job and returns its snapshot. When the queue is full the
// job is shed with ErrBusy and no state is retained.
func (e *Engine) Submit(kind string, request []byte, run func(context.Context) ([]byte, error)) (Job, error) {
	e.mu.Lock()
	e.seq++
	j := &job{
		id:      fmt.Sprintf("job-%d", e.seq),
		kind:    kind,
		request: request,
		run:     run,
		state:   JobQueued,
		done:    make(chan struct{}),
	}
	e.mu.Unlock()
	select {
	case e.queue <- j:
	default:
		e.shed.Add(1)
		return Job{}, fmt.Errorf("%w: %d jobs queued", ErrBusy, cap(e.queue))
	}
	e.mu.Lock()
	e.jobs[j.id] = j
	e.mu.Unlock()
	e.submitted.Add(1)
	return j.snapshot(), nil
}

// Get returns the snapshot of a job by id.
func (e *Engine) Get(id string) (Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	return j.snapshot(), nil
}

// List returns every job's snapshot, ordered by id sequence.
func (e *Engine) List() []Job {
	e.mu.Lock()
	js := make([]*job, 0, len(e.jobs))
	for _, j := range e.jobs {
		js = append(js, j)
	}
	e.mu.Unlock()
	sort.Slice(js, func(a, b int) bool {
		return jobSeq(js[a].id) < jobSeq(js[b].id)
	})
	out := make([]Job, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// jobSeq extracts the numeric suffix of "job-N" for ordering.
func jobSeq(id string) int64 {
	var n int64
	fmt.Sscanf(id, "job-%d", &n)
	return n
}

// Cancel stops a job: a queued job is marked cancelled before it runs, a
// running job has its context cancelled (the worker marks it cancelled when
// the evaluation returns). Terminal jobs are left untouched; the returned
// snapshot reflects the state after the cancel took effect.
func (e *Engine) Cancel(id string) (Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	j.mu.Lock()
	switch j.state {
	case JobQueued:
		j.state = JobCancelled
		j.run = nil
		e.cancelled.Add(1)
		close(j.done)
	case JobRunning:
		j.state = JobCancelled
		if j.cancel != nil {
			j.cancel()
		}
	}
	j.mu.Unlock()
	return j.snapshot(), nil
}

// Wait blocks until the job reaches a terminal state or ctx expires, then
// returns its snapshot.
func (e *Engine) Wait(ctx context.Context, id string) (Job, error) {
	e.mu.Lock()
	j, ok := e.jobs[id]
	e.mu.Unlock()
	if !ok {
		return Job{}, fmt.Errorf("%w: job %q", ErrNotFound, id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return j.snapshot(), ctx.Err()
	}
}

// EngineStats are the engine's lifetime counters and current queue depth.
type EngineStats struct {
	Submitted int64 `json:"submitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Queued    int   `json:"queued"`
	Capacity  int   `json:"capacity"`
}

// Stats reports the engine's counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Submitted: e.submitted.Load(),
		Shed:      e.shed.Load(),
		Completed: e.completed.Load(),
		Failed:    e.failed.Load(),
		Cancelled: e.cancelled.Load(),
		Queued:    len(e.queue),
		Capacity:  cap(e.queue),
	}
}
