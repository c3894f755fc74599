package stats

import (
	"fmt"
	"testing"
)

// TestQuartilesMatchPython pins Quartiles to Python's
// statistics.quantiles(values, n=4), the rule the benchmark's spread
// bounds are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := Quartiles([]float64{7, 1, 3, 10, 4, 2, 8, 6, 5, 9})
	if got := fmt.Sprintf("%.2f %.2f %.2f", q1, med, q3); got != "2.75 5.50 8.25" {
		t.Errorf("Quartiles = %s, want 2.75 5.50 8.25", got)
	}
}
