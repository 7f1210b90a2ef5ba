package runpool

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestGridConfigMajor pins Grid's layout: out[row][k] is row's cell on
// seeds[k], at any worker count, and a failing cell surfaces the same
// deterministic error MapCtx would.
func TestGridConfigMajor(t *testing.T) {
	seeds := []int64{11, 22, 33}
	cell := func(_ context.Context, row int, seed int64) (string, error) {
		return fmt.Sprintf("r%d/s%d", row, seed), nil
	}
	for _, workers := range []int{1, 2, 8} {
		got, err := Grid(context.Background(), workers, 4, seeds, cell)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 {
			t.Fatalf("workers=%d: %d rows, want 4", workers, len(got))
		}
		for r, row := range got {
			if len(row) != len(seeds) || cap(row) != len(seeds) {
				t.Fatalf("workers=%d: row %d has len %d cap %d, want %d", workers, r, len(row), cap(row), len(seeds))
			}
			for k, v := range row {
				if want := fmt.Sprintf("r%d/s%d", r, seeds[k]); v != want {
					t.Fatalf("workers=%d: out[%d][%d] = %q, want %q", workers, r, k, v, want)
				}
			}
		}
	}

	boom := errors.New("boom")
	out, err := Grid(context.Background(), 2, 3, seeds, func(_ context.Context, row int, seed int64) (int, error) {
		if row == 1 && seed == 22 {
			return 0, boom
		}
		return 1, nil
	})
	if !errors.Is(err, boom) || out != nil {
		t.Fatalf("Grid = %v, %v; want nil, boom", out, err)
	}
	if out, err := Grid(context.Background(), 2, 0, seeds, cell); err != nil || len(out) != 0 {
		t.Fatalf("empty grid = %v, %v", out, err)
	}
}
