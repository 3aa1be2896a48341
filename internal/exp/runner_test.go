package exp

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestRunSetDrainsAfterFailure pins the worker-pool drain contract: once a
// job has failed, a worker that claims a new index abandons it before any
// simulation work starts. The stub makes job 0 fail instantly while every
// other job takes long enough that the failure flag is set well before any
// worker comes back for its next claim, so no job beyond the pool's first
// claims may ever start.
func TestRunSetDrainsAfterFailure(t *testing.T) {
	var (
		mu      sync.Mutex
		started []int
	)
	boom := errors.New("boom")
	orig := runJob
	runJob = func(o Options, j Job) (*Run, error) {
		mu.Lock()
		started = append(started, j.NP)
		mu.Unlock()
		if j.NP == 0 {
			return nil, boom
		}
		time.Sleep(50 * time.Millisecond)
		return &Run{NP: j.NP}, nil
	}
	defer func() { runJob = orig }()

	jobs := make([]Job, 10)
	for i := range jobs {
		jobs[i] = Job{NP: i}
	}
	_, err := RunSet(Options{Parallel: 2}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	// Workers 1 and 2 claim jobs 0 and 1 before anything fails; job 0's
	// instant failure must abandon everything after the in-flight claims.
	if len(started) > 2 {
		t.Fatalf("%d jobs started after a failure, want <= 2 (started: %v)", len(started), started)
	}
	for _, np := range started {
		if np > 1 {
			t.Fatalf("job %d started after the failure was flagged (started: %v)", np, started)
		}
	}
}

// TestRunSetSerialStopsAtFailure pins the same contract on the serial path.
func TestRunSetSerialStopsAtFailure(t *testing.T) {
	var started []int
	boom := errors.New("boom")
	orig := runJob
	runJob = func(o Options, j Job) (*Run, error) {
		started = append(started, j.NP)
		if j.NP == 2 {
			return nil, boom
		}
		return &Run{NP: j.NP}, nil
	}
	defer func() { runJob = orig }()

	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{NP: i}
	}
	_, err := RunSet(Options{Parallel: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure", err)
	}
	if want := fmt.Sprint([]int{0, 1, 2}); fmt.Sprint(started) != want {
		t.Fatalf("started %v, want %s", started, want)
	}
}

// TestRunCellsRule pins the runner's rule on a cell type other than Job, at
// both pool sizes: results come back in input order, the error returned is
// the first in input order, and once a cell has failed, cells not yet
// started are abandoned.
func TestRunCellsRule(t *testing.T) {
	type cell struct {
		name string
		fail bool
	}
	for _, parallel := range []int{1, 4} {
		o := Options{Parallel: parallel}
		names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
		cells := make([]cell, len(names))
		for i, n := range names {
			cells[i] = cell{name: n}
		}
		got, err := runCells(o, cells, func(c cell) (string, error) {
			time.Sleep(time.Millisecond) // let workers finish out of order
			return c.name + "!", nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range names {
			if got[i] != n+"!" {
				t.Fatalf("parallel %d: results %v, want input order", parallel, got)
			}
		}

		// Cells b and c fail. On four workers a, b and d hold their workers
		// until c has failed, so c fails first in time; the error returned
		// is still b's, and no cell past the first four claims starts.
		// Serially a and b run, and b's failure abandons the rest.
		var (
			mu      sync.Mutex
			started []string
		)
		cFailed := make(chan struct{})
		cells[1].fail, cells[2].fail = true, true
		_, err = runCells(o, cells, func(c cell) (string, error) {
			mu.Lock()
			started = append(started, c.name)
			mu.Unlock()
			switch {
			case c.name == "c":
				defer close(cFailed)
			case parallel > 1 && (c.name == "a" || c.name == "b" || c.name == "d"):
				<-cFailed
				time.Sleep(10 * time.Millisecond) // let c's worker flag the failure
			}
			if c.fail {
				return "", errors.New("cell " + c.name)
			}
			return c.name, nil
		})
		if err == nil || err.Error() != "cell b" {
			t.Fatalf("parallel %d: err = %v, want cell b's, the first in input order", parallel, err)
		}
		sort.Strings(started)
		want := map[int]string{1: "[a b]", 4: "[a b c d]"}[parallel]
		if got := fmt.Sprint(started); got != want && !(parallel == 4 && got == "[a b c]") {
			t.Fatalf("parallel %d: started %s, want %s", parallel, got, want)
		}
	}
}
