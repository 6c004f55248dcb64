package pool

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsEveryIndex(t *testing.T) {
	const n = 100
	var ran [n]atomic.Int32
	if err := ForEach(n, 7, false, func(i int) error {
		ran[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("index %d ran %d times", i, got)
		}
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := ForEach(10, 1, false, func(i int) error {
		switch i {
		case 3:
			return errA
		case 7:
			return errB
		}
		return nil
	})
	if !errors.Is(err, errA) {
		t.Errorf("err = %v, want the lowest-index error", err)
	}
}

func TestForEachStopOnErrAborts(t *testing.T) {
	// Sequential pool: an early failure must keep later indices from
	// running at all.
	var ran atomic.Int32
	err := ForEach(1000, 1, true, func(i int) error {
		ran.Add(1)
		if i == 2 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got >= 1000 {
		t.Errorf("all %d indices ran despite stopOnErr", got)
	}
}

func TestForEachWithoutStopRunsAll(t *testing.T) {
	var ran atomic.Int32
	err := ForEach(50, 4, false, func(i int) error {
		ran.Add(1)
		if i%10 == 0 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if got := ran.Load(); got != 50 {
		t.Errorf("ran %d of 50 indices; stopOnErr=false must run all", got)
	}
}

func TestForEachZeroItems(t *testing.T) {
	if err := ForEach(0, 4, true, func(i int) error { return errors.New("never") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachDefaultWorkers(t *testing.T) {
	var ran atomic.Int32
	if err := ForEach(10, 0, false, func(i int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 10 {
		t.Errorf("ran %d of 10", ran.Load())
	}
}

func TestForEachOrderedEmitsInOrder(t *testing.T) {
	const n = 200
	var got []int
	err := ForEachOrdered(seq(n), 8, func(i int) int { return i }, func(v int) error {
		got = append(got, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("emitted %d of %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d emitted %d; emission must be in index order", i, v)
		}
	}
}

// TestForEachOrderedStreamsBeforeCompletion pins the streaming contract
// deterministically: index 0 must reach emit while later indices are still
// blocked inside fn — no waiting for the whole batch.
func TestForEachOrderedStreamsBeforeCompletion(t *testing.T) {
	release := make(chan struct{})
	first := make(chan int, 1)
	done := make(chan error, 1)
	go func() {
		var seen []int
		err := ForEachOrdered(seq(3), 2, func(i int) int {
			if i > 0 {
				<-release // 1 and 2 cannot finish until the test saw row 0
			}
			return i
		}, func(v int) error {
			if len(seen) == 0 {
				first <- v
			}
			seen = append(seen, v)
			return nil
		})
		if err == nil && len(seen) != 3 {
			err = errors.New("short emission")
		}
		done <- err
	}()
	if v := <-first; v != 0 {
		t.Fatalf("first emitted value = %d, want 0", v)
	}
	close(release) // row 0 was streamed while 1 and 2 were provably unfinished
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestForEachOrderedEmitErrorStopsFeed: a failing emit stops the feed,
// in index order and in a start order that runs index 0 first and the
// rest from the top down.
func TestForEachOrderedEmitErrorStopsFeed(t *testing.T) {
	const n = 1000
	down := append([]int{0}, rev(n)[:n-1]...)
	for _, order := range [][]int{seq(n), down} {
		boom := errors.New("boom")
		var ran atomic.Int32
		err := ForEachOrdered(order, 1, func(i int) int {
			ran.Add(1)
			return i
		}, func(v int) error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the emit error", err)
		}
		if got := ran.Load(); got >= n {
			t.Errorf("all %d indices ran despite the emit failure", got)
		}
	}
}

// seq is the identity start order over n indices.
func seq(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// rev is the start order n-1, …, 0.
func rev(n int) []int {
	order := seq(n)
	slices.Reverse(order)
	return order
}

// TestForEachOrderedStartsInGivenOrder: with one worker, fn runs in
// exactly the start order given, and emission is still in index order.
func TestForEachOrderedStartsInGivenOrder(t *testing.T) {
	order := rand.New(rand.NewSource(1)).Perm(50)
	var started, emitted []int
	err := ForEachOrdered(order, 1, func(i int) int {
		started = append(started, i)
		return i
	}, func(v int) error {
		emitted = append(emitted, v)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(started, order) {
		t.Errorf("fn ran in order %v, want %v", started, order)
	}
	if !slices.Equal(emitted, seq(len(order))) {
		t.Errorf("emitted %v, want index order", emitted)
	}
}

// TestForEachOrderedEmitsInIndexOrderAnyStartOrder: whatever the start
// order and the worker count, every result is emitted once, in index
// order, even when fn's run times differ by index.
func TestForEachOrderedEmitsInIndexOrderAnyStartOrder(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(2))
	for _, order := range [][]int{seq(n), rev(n), rng.Perm(n)} {
		for _, workers := range []int{1, 2, 3, 8} {
			var emitted []int
			err := ForEachOrdered(order, workers, func(i int) int {
				if i%7 == 0 {
					time.Sleep(time.Millisecond) // finish out of order
				}
				return i
			}, func(v int) error {
				emitted = append(emitted, v)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(emitted, seq(n)) {
				t.Fatalf("start order %v, %d workers: emitted %v, want index order", order[:4], workers, emitted)
			}
		}
	}
}

func TestForEachOrderedZeroItems(t *testing.T) {
	err := ForEachOrdered(nil, 4, func(i int) int { return i }, func(int) error {
		return errors.New("never")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestForEachOrderedDefaultWorkers(t *testing.T) {
	var emitted int
	if err := ForEachOrdered(seq(10), 0, func(i int) int { return i }, func(int) error {
		emitted++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if emitted != 10 {
		t.Errorf("emitted %d of 10", emitted)
	}
}
