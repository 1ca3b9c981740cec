package analysis

import (
	"strconv"
	"strings"
	"testing"
)

func TestAllExperimentsHaveUniqueIDsAndRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment generators are slow; skipped in -short mode")
	}
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Fatalf("experiment %s incompletely defined", e.ID)
		}
	}
	if len(seen) != 18 {
		t.Fatalf("expected 18 experiments, found %d", len(seen))
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E01"); !ok {
		t.Error("E01 should exist")
	}
	if _, ok := ByID("E99"); ok {
		t.Error("E99 should not exist")
	}
}

func TestE01MeshBounds(t *testing.T) {
	tbl := E01MeshBounds()
	if len(tbl.Rows) == 0 {
		t.Fatal("empty table")
	}
	for _, row := range tbl.Rows {
		if row[2] != row[3] {
			t.Errorf("construction size %s differs from the lower bound %s (row %v)", row[3], row[2], row)
		}
		if row[4] != "yes" {
			t.Errorf("construction not verified as a monotone dynamo: %v", row)
		}
		// Theorem 1 forbids *monotone* dynamos below the bound.  That holds
		// empirically for min(m,n) >= 6; on smaller tori random search finds
		// genuine counterexamples (the ones E17 records), so those rows
		// are exempt here.
		m, _ := strconv.Atoi(row[0])
		n, _ := strconv.Atoi(row[1])
		if m >= 6 && n >= 6 && !strings.HasPrefix(row[6], "0/") {
			t.Errorf("a random undersized seed was a MONOTONE dynamo on a large torus: %v", row)
		}
	}
}

func TestE02Figure1(t *testing.T) {
	tbl := E02Figure1()
	if len(tbl.Rows) < 3 {
		t.Fatalf("unexpected table: %+v", tbl)
	}
	if tbl.Rows[0][2] != "16" {
		t.Errorf("Figure 1 dynamo size = %s, want 16", tbl.Rows[0][2])
	}
	if tbl.Rows[1][2] != "yes" || tbl.Rows[2][2] != "yes" {
		t.Error("Figure 1 configuration should be a monotone dynamo")
	}
}

func TestE05CordalisMatchesBound(t *testing.T) {
	tbl := E05Cordalis()
	for _, row := range tbl.Rows {
		if row[3] == "error" {
			t.Errorf("construction failed for %vx%v", row[0], row[1])
			continue
		}
		if row[2] != row[3] {
			t.Errorf("cordalis size %s != bound %s", row[3], row[2])
		}
		if row[5] != "yes" {
			t.Errorf("cordalis construction not a monotone dynamo: %v", row)
		}
	}
}

func TestE06SerpentinusMatchesBound(t *testing.T) {
	tbl := E06Serpentinus()
	for _, row := range tbl.Rows {
		if row[4] == "error" {
			t.Errorf("construction failed for %vx%v", row[0], row[1])
			continue
		}
		if row[3] != row[4] {
			t.Errorf("serpentinus size %s != bound %s", row[4], row[3])
		}
		if row[6] != "yes" {
			t.Errorf("serpentinus construction not a monotone dynamo: %v", row)
		}
	}
}

func TestE09Figure5Matches(t *testing.T) {
	tbl := E09Figure5()
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "matches" || last[2] != "yes" {
		t.Errorf("Figure 5 should match exactly: %v", last)
	}
}

func TestE10Figure6RoundCount(t *testing.T) {
	tbl := E10Figure6()
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "max (= rounds)" {
		t.Fatalf("unexpected last row %v", last)
	}
	if last[1] != last[2] {
		t.Errorf("Figure 6 total round count should match: paper %s, measured %s", last[1], last[2])
	}
}

func TestE04CounterexamplesAreNotDynamos(t *testing.T) {
	tbl := E04Counterexamples()
	if len(tbl.Rows) != 3 {
		t.Fatalf("expected 3 counterexamples, got %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[2] != "no" {
			t.Errorf("counterexample %s unexpectedly reached the monochromatic configuration", row[0])
		}
	}
}

func TestE12RuleComparisonShowsTheTieDifference(t *testing.T) {
	tbl := E12RuleComparison()
	var smpCross, pbCross string
	for _, row := range tbl.Rows {
		if row[0] == "two-color cross on 6x6 mesh" {
			switch row[1] {
			case "smp":
				smpCross = row[2]
			case "simple-majority-pb":
				pbCross = row[2]
			}
		}
	}
	if smpCross != "no" || pbCross != "yes" {
		t.Errorf("expected SMP=no, PB=yes on the two-color cross; got smp=%s pb=%s", smpCross, pbCross)
	}
}

func TestE16PaddingAblationShowsHypothesisGap(t *testing.T) {
	tbl := E16PaddingAblation()
	foundGap := false
	for _, row := range tbl.Rows {
		if strings.Contains(row[0], "corner gap") {
			foundGap = true
			if row[1] != "yes" {
				t.Errorf("gap padding should satisfy the stated hypotheses: %v", row)
			}
			if row[2] != "no" {
				t.Errorf("gap padding should not be monotone: %v", row)
			}
		}
		if strings.Contains(row[0], "library default") && (row[2] != "yes" || row[3] != "yes") {
			t.Errorf("default padding should be a monotone dynamo: %v", row)
		}
		if strings.Contains(row[0], "foreign block") && row[3] != "no" {
			t.Errorf("planted-block padding should not be a dynamo: %v", row)
		}
	}
	if !foundGap {
		t.Error("gap row missing from the ablation table")
	}
}

func TestExperimentTablesRenderInShortMode(t *testing.T) {
	// A smoke test that the cheap experiment generators render non-empty
	// tables (the expensive ones are covered above and by the benchmarks).
	for _, gen := range []func() *Table{E02Figure1, E09Figure5, E11Proposition3, E12RuleComparison} {
		tbl := gen()
		out := tbl.Render()
		if len(out) == 0 || len(tbl.Rows) == 0 {
			t.Errorf("experiment %q rendered empty output", tbl.Title)
		}
	}
}
