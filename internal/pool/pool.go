// Package pool schedules independent deterministic simulation runs across a
// bounded set of worker goroutines.
//
// The determinism contract (see DESIGN.md): every task owns its entire
// mutable state — its own sim.Machine, workload.App, and seeded RNG — and
// communicates only through its return value. Under that contract the merge
// is order-preserving (results[i] always comes from tasks[i]) and the
// results are bit-for-bit identical at any worker count, including the
// Workers == 1 case, which runs the tasks sequentially on the calling
// goroutine exactly like the serial loops the pool replaced.
//
// Failures never tear down the process: a task that returns an error or
// panics is reported as a *TaskError carrying the task's label and index,
// and every other task still runs to completion. All failures are joined
// (in task order) into the single error Map returns.
package pool

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Task is one labelled unit of independent work.
type Task[T any] struct {
	// Label identifies the task in error reports (e.g. "fig11/redis/6%").
	Label string
	// Run produces the task's result. It must not share mutable state with
	// any other task.
	Run func() (T, error)
}

// TaskError wraps one task's failure with its identity.
type TaskError struct {
	Index int
	Label string
	Err   error
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("task %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *TaskError) Unwrap() error { return e.Err }

// PanicError is a recovered task panic, preserved with its stack so a
// panicking run reports its task label instead of killing the process.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// resolveWorkers resolves a worker-count option: n <= 0 selects GOMAXPROCS (all
// available cores), anything else is taken literally.
func resolveWorkers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map runs every task on at most resolveWorkers(workers) goroutines and returns
// the results in task order. All tasks run regardless of failures; the
// returned error joins every *TaskError in task order (nil if none).
func Map[T any](workers int, tasks []Task[T]) ([]T, error) {
	results := make([]T, len(tasks))
	errs := make([]error, len(tasks))
	w := min(resolveWorkers(workers), len(tasks))
	if w <= 1 {
		for i := range tasks {
			results[i], errs[i] = runOne(i, tasks[i])
		}
		return results, errors.Join(errs...)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i], errs[i] = runOne(i, tasks[i])
			}
		}()
	}
	for i := range tasks {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results, errors.Join(errs...)
}

// runOne executes a single task with panic containment.
func runOne[T any](i int, t Task[T]) (result T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &TaskError{Index: i, Label: t.Label,
				Err: &PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	result, err = t.Run()
	if err != nil {
		err = &TaskError{Index: i, Label: t.Label, Err: err}
	}
	return result, err
}
