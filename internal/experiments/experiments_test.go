// Smoke tests running the experiment harness at its smallest scale under
// plain `go test`, so drift in the experiment builders (which full CI only
// exercises in the bench job) fails every test run.
package experiments_test

import (
	"encoding/json"
	"slices"
	"strconv"
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
	raw, err := json.Marshal(table)
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	col := func(name string) int {
		i := slices.Index(out.Columns, name)
		if i < 0 {
			t.Fatalf("E11 has no %q column: %v", name, out.Columns)
		}
		return i
	}
	mode, frac, naks := col("mode"), col("delivered frac"), col("naks")
	// Each loss rate has a best-effort row then a retransmit row. The
	// best-effort baseline (an hour-long NAK interval) must send no NAK and
	// deliver a smaller fraction than recovery does.
	for i := 0; i+1 < len(out.Rows); i += 2 {
		be, re := out.Rows[i], out.Rows[i+1]
		if be[mode] != "best-effort" || re[mode] != "retransmit" {
			t.Fatalf("rows %d/%d modes = %q/%q, want best-effort/retransmit", i, i+1, be[mode], re[mode])
		}
		if be[naks] != "0" {
			t.Errorf("best-effort row %d sent %s NAKs, want 0", i, be[naks])
		}
		beFrac, err1 := strconv.ParseFloat(be[frac], 64)
		reFrac, err2 := strconv.ParseFloat(re[frac], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("unparsable delivered fractions %q/%q", be[frac], re[frac])
		}
		if beFrac >= reFrac {
			t.Errorf("best-effort delivered %v, retransmit %v: recovery bought nothing", beFrac, reFrac)
		}
	}
}
