package search

import (
	"testing"

	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/grid"
)

func TestRandomDynamoFindsSubBoundMonotoneDynamoOn4x4(t *testing.T) {
	// The counterexample to Theorem 1 that experiment E17 records: a
	// monotone dynamo strictly below the m+n-2 bound on the 4x4 mesh.
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	bound := dynamo.LowerBound(grid.KindToroidalMesh, topo.Dims())
	found := RandomDynamo(topo, bound-1, 1, color.MustPalette(5), Options{Trials: 2000, RequireMonotone: true, Seed: 3})
	if found == nil {
		t.Fatal("expected to find a monotone dynamo of size bound-1 on the 4x4 mesh")
	}
	if !found.Monotone {
		t.Fatal("RequireMonotone was set but the hit is not monotone")
	}
	if found.Coloring.Count(1) != bound-1 {
		t.Fatalf("seed size %d, want %d", found.Coloring.Count(1), bound-1)
	}
	// Re-verify the returned configuration independently.
	v := dynamo.VerifyColoring(topo, found.Coloring, 1)
	if !v.IsDynamo || !v.Monotone {
		t.Fatal("returned configuration does not re-verify")
	}
}

func TestRandomDynamoRespectsMonotoneFlag(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	// Without the monotone requirement undersized hits exist on 5x5; with a
	// tiny trial budget the search may or may not find one, but it must
	// never return a non-dynamo.
	found := RandomDynamo(topo, 7, 1, color.MustPalette(5), Options{Trials: 300, RequireMonotone: false, Seed: 9})
	if found != nil {
		v := dynamo.VerifyColoring(topo, found.Coloring, 1)
		if !v.IsDynamo {
			t.Fatal("search returned a configuration that is not a dynamo")
		}
	}
}

func TestRandomDynamoFailsOnLargeTorusBelowBound(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	found := RandomDynamo(topo, 5, 1, color.MustPalette(4), Options{Trials: 60, RequireMonotone: false, Seed: 2})
	if found != nil {
		t.Fatal("a 5-vertex random seed should not take over an 8x8 torus")
	}
}

func TestSmallestRandomDynamo(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	bound := dynamo.LowerBound(grid.KindToroidalMesh, topo.Dims())
	best, found := SmallestRandomDynamo(topo, bound, 1, color.MustPalette(5),
		Options{Trials: 1500, RequireMonotone: true, Seed: 5})
	if best == 0 || found == nil {
		t.Fatal("expected to find monotone dynamos below the bound on 4x4")
	}
	if best >= bound {
		t.Fatalf("best size %d should be below the bound %d", best, bound)
	}
	if found.SeedSize != best {
		t.Fatalf("inconsistent result: best %d, found seed %d", best, found.SeedSize)
	}
}

func TestExhaustiveMonotoneDynamoTiny(t *testing.T) {
	// On a 3x3 torus with seeds of size 2 nothing should win monotonically
	// (bound is 4); the exhaustive search must terminate and say so.
	topo := grid.MustNew(grid.KindToroidalMesh, 3, 3)
	found, placements, err := ExhaustiveMonotoneDynamo(topo, 2, 1, color.MustPalette(4), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if placements != 36 { // C(9,2)
		t.Errorf("expected 36 placements, got %d", placements)
	}
	if found != nil {
		t.Errorf("unexpected 2-vertex monotone dynamo on 3x3:\n%s", found.Coloring.String())
	}
}

func TestExhaustiveMonotoneDynamoValidation(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 3, 3)
	if _, _, err := ExhaustiveMonotoneDynamo(topo, 0, 1, color.MustPalette(4), 1, 0); err == nil {
		t.Error("size 0 should be rejected")
	}
	if _, _, err := ExhaustiveMonotoneDynamo(topo, 99, 1, color.MustPalette(4), 1, 0); err == nil {
		t.Error("oversized seed should be rejected")
	}
	// The placement cap must trigger cleanly.
	big := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	if _, _, err := ExhaustiveMonotoneDynamo(big, 5, 1, color.MustPalette(4), 1, 10); err == nil {
		t.Error("placement cap should produce an error")
	}
}

func TestDefaultOptions(t *testing.T) {
	opt := DefaultOptions()
	if opt.Trials <= 0 || !opt.RequireMonotone {
		t.Errorf("unexpected defaults %+v", opt)
	}
}
