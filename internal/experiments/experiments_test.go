// Smoke tests running the experiment harness at its smallest scale under
// plain `go test`, so drift in the experiment builders (which full CI only
// exercises in the bench job) fails every test run.
package experiments_test

import (
	"testing"

	"repro/internal/experiments"
)

func TestE1RequestCostSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E1RequestCost(experiments.Smoke)
	if err != nil {
		t.Fatalf("E1 smoke: %v", err)
	}
	if table.Rows() == 0 {
		t.Fatal("E1 produced no rows")
	}
}

func TestE9BatchingThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E9BatchingThroughput(experiments.Smoke)
	if err != nil {
		t.Fatalf("E9 smoke: %v", err)
	}
	// One size, two rows (unbatched + batched).
	if table.Rows() != 2 {
		t.Fatalf("E9 smoke rows = %d, want 2", table.Rows())
	}
}

func TestE10ChaosSurvivalSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E10ChaosSurvival(experiments.Smoke)
	if err != nil {
		t.Fatalf("E10 smoke: %v", err)
	}
	if table.Rows() == 0 {
		t.Fatal("E10 produced no rows")
	}
}

func TestE12MemberScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E12MemberScaling(experiments.Smoke)
	if err != nil {
		t.Fatalf("E12 smoke: %v", err)
	}
	// One size, one row.
	if table.Rows() != 1 {
		t.Fatalf("E12 smoke rows = %d, want 1", table.Rows())
	}
}

func TestE11LossyThroughputSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	table, err := experiments.E11LossyThroughput(experiments.Smoke)
	if err != nil {
		t.Fatalf("E11 smoke: %v", err)
	}
	// Two loss rates × two modes.
	if table.Rows() != 4 {
		t.Fatalf("E11 smoke rows = %d, want 4", table.Rows())
	}
}
