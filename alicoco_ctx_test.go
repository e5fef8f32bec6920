package alicoco

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCtxVariantsRefuseDeadCtx: every query method reports the context
// error instead of dispatching once the context is done.
func TestCtxVariantsRefuseDeadCtx(t *testing.T) {
	c := buildSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := c.SearchCtx(ctx, "grill", 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchCtx err = %v", err)
	}
	if _, _, err := c.RecommendCtx(ctx, []int{1, 2}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecommendCtx err = %v", err)
	}
	if _, err := c.SearchBatchBytesCtx(ctx, [][]byte{[]byte("grill")}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("SearchBatchBytesCtx err = %v", err)
	}
	if _, err := c.RecommendBatchCtx(ctx, [][]int{{1}}, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("RecommendBatchCtx err = %v", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := c.SearchCtx(expired, "grill", 5); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired SearchCtx err = %v", err)
	}
}

// TestBatchCtxCancelMidFlight: canceling while a large batch fans out must
// surface the error (the partial slice is not served) without deadlocking
// the worker pool.
func TestBatchCtxCancelMidFlight(t *testing.T) {
	c := buildSmall(t)
	queries := make([]string, 512)
	for i := range queries {
		queries[i] = "outdoor barbecue"
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Cancel as soon as the batch is plausibly in flight; whichever
		// side wins the race, the call must return promptly with either a
		// complete result or ctx.Canceled.
		time.Sleep(time.Millisecond)
		cancel()
	}()
	res, err := c.SearchBatchBytesCtx(ctx, queryBytes(queries), 5)
	<-done
	if err == nil {
		if len(res) != len(queries) {
			t.Fatalf("nil error with %d/%d results", len(res), len(queries))
		}
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}
