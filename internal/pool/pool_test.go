package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"thermostat/internal/rng"
)

func TestWorkers(t *testing.T) {
	t.Parallel()
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func squares(n int) []Task[int] {
	tasks := make([]Task[int], n)
	for i := range tasks {
		tasks[i] = Task[int]{
			Label: fmt.Sprintf("sq/%d", i),
			Run:   func() (int, error) { return i * i, nil },
		}
	}
	return tasks
}

func TestMapOrderAcrossWorkerCounts(t *testing.T) {
	t.Parallel()
	for _, w := range []int{0, 1, 2, 7, 64} {
		res, err := Map(w, squares(33))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range res {
			if v != i*i {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	t.Parallel()
	res, err := Map(4, []Task[int]{})
	if err != nil || len(res) != 0 {
		t.Fatalf("Map(4, nil) = %v, %v", res, err)
	}
}

func TestMapCollectsErrorsAndKeepsRunning(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	ran := make([]bool, 6)
	tasks := make([]Task[int], 6)
	for i := range tasks {
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func() (int, error) {
			ran[i] = true
			if i%2 == 1 {
				return 0, boom
			}
			return i, nil
		}}
	}
	for _, w := range []int{1, 3} {
		for i := range ran {
			ran[i] = false
		}
		res, err := Map(w, tasks)
		if err == nil {
			t.Fatalf("workers=%d: no error", w)
		}
		for i, r := range ran {
			if !r {
				t.Errorf("workers=%d: task %d never ran after earlier failure", w, i)
			}
			if i%2 == 0 && res[i] != i {
				t.Errorf("workers=%d: healthy task %d result lost", w, i)
			}
		}
		var te *TaskError
		if !errors.As(err, &te) {
			t.Fatalf("workers=%d: error %v does not unwrap to *TaskError", w, err)
		}
		if !errors.Is(err, boom) {
			t.Errorf("workers=%d: joined error loses the cause", w)
		}
	}
}

// TestMapOptsDefaultRunsEverything pins the default contract: without
// FailFast, a failure never prevents later tasks from running — the
// behavior every existing experiment depends on.
func TestMapOptsDefaultRunsEverything(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	var ran [4]atomic.Bool
	tasks := make([]Task[int], 4)
	for i := range tasks {
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func() (int, error) {
			ran[i].Store(true)
			if i == 0 {
				return 0, boom
			}
			return i, nil
		}}
	}
	for _, w := range []int{1, 3} {
		for i := range ran {
			ran[i].Store(false)
		}
		_, err := MapOpts(Options{Workers: w}, tasks)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: failure not reported: %v", w, err)
		}
		if errors.Is(err, ErrSkipped) {
			t.Fatalf("workers=%d: default options skipped a task", w)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("workers=%d: task %d skipped without FailFast", w, i)
			}
		}
	}
}

// skippedIndices walks a joined error and collects the indices of tasks
// that report ErrSkipped.
func skippedIndices(t *testing.T, err error) map[int]bool {
	t.Helper()
	skipped := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
			return
		}
		var te *TaskError
		if errors.As(e, &te) && errors.Is(te.Err, ErrSkipped) {
			skipped[te.Index] = true
		}
	}
	walk(err)
	return skipped
}

func TestMapOptsFailFastSerial(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	ran := make([]bool, 5)
	tasks := make([]Task[int], 5)
	for i := range tasks {
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func() (int, error) {
			ran[i] = true
			if i == 1 {
				return 0, boom
			}
			return i, nil
		}}
	}
	res, err := MapOpts(Options{Workers: 1, FailFast: true}, tasks)
	if !errors.Is(err, boom) || !errors.Is(err, ErrSkipped) {
		t.Fatalf("error misses cause or skip marker: %v", err)
	}
	if !ran[0] || !ran[1] {
		t.Fatal("tasks before the failure did not run")
	}
	for i := 2; i < 5; i++ {
		if ran[i] {
			t.Errorf("task %d ran after serial fail-fast cut-off", i)
		}
	}
	if res[0] != 0 {
		t.Errorf("pre-failure result lost: %d", res[0])
	}
	want := map[int]bool{2: true, 3: true, 4: true}
	if got := skippedIndices(t, err); len(got) != 3 || !got[2] || !got[3] || !got[4] {
		t.Fatalf("skipped = %v, want %v", got, want)
	}
}

func TestMapOptsFailFastParallelDrainsInFlight(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	started := make(chan struct{}) // task 1 is running
	failed := make(chan struct{})  // task 0 is about to fail
	tasks := make([]Task[int], 8)
	tasks[0] = Task[int]{Label: "t0", Run: func() (int, error) {
		<-started // guarantee task 1 is in flight before failing
		close(failed)
		return 0, boom
	}}
	tasks[1] = Task[int]{Label: "t1", Run: func() (int, error) {
		close(started)
		<-failed
		return 1, nil
	}}
	for i := 2; i < len(tasks); i++ {
		tasks[i] = Task[int]{Label: fmt.Sprintf("t%d", i), Run: func() (int, error) {
			// Give the failing worker ample time to publish the flag
			// before the dispatcher can commit another task.
			time.Sleep(2 * time.Millisecond)
			return i, nil
		}}
	}
	res, err := MapOpts(Options{Workers: 2, FailFast: true}, tasks)
	if !errors.Is(err, boom) || !errors.Is(err, ErrSkipped) {
		t.Fatalf("error misses cause or skip marker: %v", err)
	}
	// Task 1 was in flight when task 0 failed and must drain with its
	// result intact.
	if res[1] != 1 {
		t.Errorf("in-flight task 1 lost its result: %d", res[1])
	}
	// Cancellation is racy by design, but the skip set is always a
	// contiguous suffix: once the dispatcher observes the failure it
	// never dispatches again.
	skipped := skippedIndices(t, err)
	if len(skipped) == 0 {
		t.Fatal("no tasks skipped under fail-fast")
	}
	first := len(tasks)
	for i := range skipped {
		if i < first {
			first = i
		}
	}
	for i := first; i < len(tasks); i++ {
		if !skipped[i] {
			t.Errorf("skip set is not a suffix: task %d ran after task %d was skipped", i, first)
		}
		if res[i] != 0 {
			t.Errorf("skipped task %d has a result", i)
		}
	}
}

func TestMapRecoversPanicWithLabel(t *testing.T) {
	t.Parallel()
	tasks := []Task[string]{
		{Label: "fine", Run: func() (string, error) { return "ok", nil }},
		{Label: "redis-grid-cell", Run: func() (string, error) { panic("simulated blowup") }},
	}
	for _, w := range []int{1, 2} {
		res, err := Map(w, tasks)
		if err == nil {
			t.Fatalf("workers=%d: panic not reported", w)
		}
		if res[0] != "ok" {
			t.Errorf("workers=%d: surviving result lost", w)
		}
		var te *TaskError
		if !errors.As(err, &te) || te.Label != "redis-grid-cell" || te.Index != 1 {
			t.Errorf("workers=%d: panic lost its task identity: %v", w, err)
		}
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "simulated blowup" || len(pe.Stack) == 0 {
			t.Errorf("workers=%d: panic value/stack not preserved: %v", w, err)
		}
	}
}

func TestGridShapeAndOrder(t *testing.T) {
	t.Parallel()
	grid := [][]Task[int]{}
	for r := 0; r < 4; r++ {
		var row []Task[int]
		for c := 0; c <= r; c++ { // ragged: row r has r+1 cells
			row = append(row, Task[int]{
				Label: fmt.Sprintf("cell/%d/%d", r, c),
				Run:   func() (int, error) { return 10*r + c, nil },
			})
		}
		grid = append(grid, row)
	}
	for _, w := range []int{1, 3} {
		res, err := Grid(w, grid)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(res) != 4 {
			t.Fatalf("workers=%d: rows = %d", w, len(res))
		}
		for r, row := range res {
			if len(row) != r+1 {
				t.Fatalf("workers=%d: row %d has %d cells", w, r, len(row))
			}
			for c, v := range row {
				if v != 10*r+c {
					t.Errorf("workers=%d: cell (%d,%d) = %d", w, r, c, v)
				}
			}
		}
	}
}

// TestMapPropertyRandomLatencies is the scheduler's property test: under
// randomized task latencies and worker counts, Map must preserve input
// order in its results and collect every error and panic exactly once.
func TestMapPropertyRandomLatencies(t *testing.T) {
	t.Parallel()
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		n := 1 + int(r.Uint64n(40))
		workers := int(r.Uint64n(9)) // 0 (= all cores) through 8
		wantErr := map[int]bool{}
		wantPanic := map[int]bool{}
		tasks := make([]Task[int], n)
		for i := range tasks {
			delay := time.Duration(r.Uint64n(300)) * time.Microsecond
			kind := r.Uint64n(5)
			switch kind {
			case 3:
				wantErr[i] = true
			case 4:
				wantPanic[i] = true
			}
			tasks[i] = Task[int]{Label: fmt.Sprintf("task/%d", i), Run: func() (int, error) {
				time.Sleep(delay)
				switch kind {
				case 3:
					return 0, fmt.Errorf("err-%d", i)
				case 4:
					panic(fmt.Sprintf("panic-%d", i))
				}
				return i * 3, nil
			}}
		}
		res, err := Map(workers, tasks)
		if len(res) != n {
			t.Fatalf("trial %d: %d results for %d tasks", trial, len(res), n)
		}
		for i, v := range res {
			if wantErr[i] || wantPanic[i] {
				continue
			}
			if v != i*3 {
				t.Fatalf("trial %d (workers=%d): res[%d] = %d, order not preserved",
					trial, workers, i, v)
			}
		}
		if len(wantErr)+len(wantPanic) == 0 {
			if err != nil {
				t.Fatalf("trial %d: unexpected error %v", trial, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("trial %d: %d failures uncollected", trial, len(wantErr)+len(wantPanic))
		}
		// Every failure must appear exactly once, carrying its own label.
		seen := map[int]int{}
		var walk func(error)
		walk = func(e error) {
			if joined, ok := e.(interface{ Unwrap() []error }); ok {
				for _, sub := range joined.Unwrap() {
					walk(sub)
				}
				return
			}
			var te *TaskError
			if errors.As(e, &te) {
				seen[te.Index]++
				if te.Label != fmt.Sprintf("task/%d", te.Index) {
					t.Fatalf("trial %d: task %d reported under label %q", trial, te.Index, te.Label)
				}
				var pe *PanicError
				isPanic := errors.As(te.Err, &pe)
				if isPanic != wantPanic[te.Index] {
					t.Fatalf("trial %d: task %d panic/error kind mismatch", trial, te.Index)
				}
			}
		}
		walk(err)
		for i := range wantErr {
			if seen[i] != 1 {
				t.Fatalf("trial %d: error of task %d collected %d times", trial, i, seen[i])
			}
		}
		for i := range wantPanic {
			if seen[i] != 1 {
				t.Fatalf("trial %d: panic of task %d collected %d times", trial, i, seen[i])
			}
		}
	}
}
