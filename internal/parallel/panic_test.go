package parallel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForEachPanicBecomesError: a panicking task fails its index with a
// *PanicError carrying the value and the stack, the lowest failing index
// wins whether it panicked or returned an error, and on several workers
// every other index still runs.
func TestForEachPanicBecomesError(t *testing.T) {
	boom := errors.New("boom")
	for _, j := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(j, 50, func(i int) error {
			ran.Add(1)
			switch i {
			case 3, 20, 21, 22, 23:
				panic(fmt.Sprintf("task %d", i))
			case 7:
				return boom
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("j=%d: err = %v, want a *PanicError", j, err)
		}
		if pe.Value != "task 3" {
			t.Errorf("j=%d: panic value %v, want index 3's", j, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "TestForEachPanicBecomesError") {
			t.Errorf("j=%d: stack does not reach the panic site:\n%s", j, pe.Stack)
		}
		want := int64(50)
		if j == 1 {
			want = 4 // a sequential loop stops at its first failure
		}
		if ran.Load() != want {
			t.Errorf("j=%d: %d indexes ran, want %d", j, ran.Load(), want)
		}

		// An earlier plain error beats a later panic.
		err = ForEach(j, 10, func(i int) error {
			if i == 1 {
				return boom
			}
			if i == 6 {
				panic("late")
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Errorf("j=%d: err = %v, want boom", j, err)
		}
	}
}

func TestShardAndLevelsContainPanics(t *testing.T) {
	for _, j := range []int{1, 4} {
		err := ShardCtx(context.Background(), j, 100, func(w, lo, hi int) error {
			if lo <= 60 && 60 < hi {
				panic("shard")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Value != "shard" {
			t.Errorf("j=%d: ShardCtx err = %v, want the shard's panic", j, err)
		}

		var after atomic.Int64
		err = LevelsCtx(context.Background(), j, 3, func(int) int { return 10 },
			func(level, w, lo, hi int) error {
				if level == 1 && lo == 0 {
					panic(level)
				}
				return nil
			}, func(int) error { after.Add(1); return nil })
		if !errors.As(err, &pe) || pe.Value != 1 {
			t.Errorf("j=%d: LevelsCtx err = %v, want level 1's panic", j, err)
		}
		if after.Load() != 1 {
			t.Errorf("j=%d: %d after hooks ran, want only level 0's", j, after.Load())
		}
	}
}
