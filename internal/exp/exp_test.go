package exp

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"fbplace/internal/gen"
	"fbplace/internal/legalize"
	"fbplace/internal/region"
	"fbplace/internal/rql"
)

// tinyScale keeps the smoke tests fast: every instance floors at 2000
// cells.
const tinyScale = 0.0001

func TestTable1Smoke(t *testing.T) {
	spec, rows, err := Table1(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		// The paper's key claim: |E|/|V| stays a small constant (their
		// Table I shows 3.9-5.5).
		if r.Ratio > 10 {
			t.Fatalf("|E|/|V| = %.1f, want small constant", r.Ratio)
		}
		if r.Windows <= 0 || r.Regions < r.Windows {
			t.Fatalf("bad sizes: %+v", r)
		}
	}
	// Monotone grid refinement.
	for i := 1; i < len(rows); i++ {
		if rows[i].Windows <= rows[i-1].Windows {
			t.Fatalf("windows not increasing: %d -> %d", rows[i-1].Windows, rows[i].Windows)
		}
	}
	var buf bytes.Buffer
	PrintTable1(&buf, spec, rows)
	if !strings.Contains(buf.String(), "TABLE I") {
		t.Fatal("print output wrong")
	}
}

func TestTable2Smoke(t *testing.T) {
	rows, err := Table2(tinyScale, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.BaseFailed || r.FBPHPWL <= 0 || r.BaseHPWL <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
		if r.FBPViol != 0 {
			t.Fatalf("FBP violations on unbounded chip: %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintCompare(&buf, "TABLE II", rows, false)
	if !strings.Contains(buf.String(), "TOTAL") {
		t.Fatal("no totals printed")
	}
}

// TestTable2CanceledSkipsBaseline checks that the -timeout budget bounds
// the RQL baseline too: under an already-canceled context a one-chip
// Table 2 returns the context error, not a "crashed" baseline row, and
// returns in under a tenth of the time that generating the chip and
// running its baseline to the end take.
func TestTable2CanceledSkipsBaseline(t *testing.T) {
	start := time.Now()
	inst, err := gen.Chip(gen.TableIIChips(tinyScale, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rql.Place(inst.N, rql.Config{}); err != nil {
		t.Fatal(err)
	}
	if _, err := legalize.Legalize(inst.N, region.Decompose(inst.N.Area, nil), legalize.Options{}); err != nil {
		t.Fatal(err)
	}
	full := time.Since(start)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	SetContext(ctx)
	defer SetContext(nil)
	start = time.Now()
	rows, err := Table2(tinyScale, 1)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Table2 under a canceled context: rows %+v, err %v; want context.Canceled", rows, err)
	}
	t.Logf("canceled Table2 %v, chip and full baseline %v", took, full)
	if took*10 > full {
		t.Fatalf("canceled Table2 took %v, baseline run %v: the baseline ignored the context", took, full)
	}
}

func TestTable3Smoke(t *testing.T) {
	rows, insts, err := Table3(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 || len(insts) != 8 {
		t.Fatalf("rows = %d, insts = %d", len(rows), len(insts))
	}
	for _, r := range rows {
		if r.PctMB <= 0 || r.MaxDensity <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
	var buf bytes.Buffer
	PrintTable3(&buf, rows)
	if !strings.Contains(buf.String(), "Tomoku") {
		t.Fatal("chip names missing")
	}
}

func TestTable5Smoke(t *testing.T) {
	rows, err := Table5(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5 (Table V chips)", len(rows))
	}
	for _, r := range rows {
		// The FBP placer must be violation-free on every instance.
		if r.FBPViol != 0 {
			t.Fatalf("%s: FBP violations = %d", r.Chip, r.FBPViol)
		}
	}
	var buf bytes.Buffer
	PrintCompare(&buf, "TABLE V", rows, true)
	PrintTable6(&buf, rows)
	if !strings.Contains(buf.String(), "global") {
		t.Fatal("table VI missing")
	}
}

func TestTable7Smoke(t *testing.T) {
	rows, err := Table7(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FBP.HPWL <= 0 || r.KW.HPWL <= 0 {
			t.Fatalf("bad row %+v", r)
		}
		if r.FBP.CPU < -0.10-1e-9 || r.FBP.CPU > 0.10+1e-9 {
			t.Fatalf("CPU factor out of range: %v", r.FBP.CPU)
		}
	}
	var buf bytes.Buffer
	PrintTable7(&buf, rows)
	if !strings.Contains(buf.String(), "newblue7") {
		t.Fatal("instances missing")
	}
}

func TestSpeedupSmoke(t *testing.T) {
	rows, err := Speedup(tinyScale, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // 1, 2, 4
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Speedup != 1 {
		t.Fatalf("baseline speedup = %v", rows[0].Speedup)
	}
	var buf bytes.Buffer
	PrintSpeedup(&buf, rows)
	if !strings.Contains(buf.String(), "workers") {
		t.Fatal("bad print")
	}
}

func TestAblationSmoke(t *testing.T) {
	rows, err := AblationRecursive(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintAblation(&buf, "ablation", rows, true)
	if !strings.Contains(buf.String(), "recursive") {
		t.Fatal("bad print")
	}
}

func TestFeasibilityBenchSmoke(t *testing.T) {
	d, feasible, err := FeasibilityBench(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if !feasible {
		t.Fatal("generated instance infeasible")
	}
	if d <= 0 {
		t.Fatal("no duration")
	}
}

func TestClusterRatioFor(t *testing.T) {
	if got := clusterRatioFor(2000); got != 0 {
		t.Fatalf("2000 movable -> ratio %v, want 0 (off)", got)
	}
	if got := clusterRatioFor(100_000); got != 5 {
		t.Fatalf("100k movable -> ratio %v, want 5", got)
	}
	if got := clusterRatioFor(4500); got != 3 {
		t.Fatalf("4500 movable -> ratio %v, want 3", got)
	}
}
