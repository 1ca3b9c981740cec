package dynmon

import (
	"strings"
	"testing"
)

// TestSpecDigestAliasCollision pins the satellite contract the dynserve
// result cache is built on: every alias form of a spec — registry aliases,
// implicit default rules, unsorted or duplicated edge lists — digests to the
// same address as its canonical form.
func TestSpecDigestAliasCollision(t *testing.T) {
	groups := map[string][]*Spec{
		"mesh-aliases": {
			{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "toroidal-mesh", Rows: 9, Cols: 9}}, Colors: 5, Rule: "smp"},
			{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "mesh", Rows: 9, Cols: 9}}, Colors: 5, Rule: "smp"},
			// The empty rule defaults to "smp" on tori.
			{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "mesh", Rows: 9, Cols: 9}}, Colors: 5},
		},
		"generator-aliases": {
			{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "barabasi-albert", N: 100, Params: map[string]float64{"m": 2}, Seed: 7}}, Colors: 2, Rule: "generalized-smp"},
			{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "ba", N: 100, Params: map[string]float64{"m": 2}, Seed: 7}}, Colors: 2, Rule: "generalized-smp"},
			// Both the empty rule and a literal "smp" resolve to
			// "generalized-smp" on graph substrates, exactly as Spec.New does.
			{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "ba", N: 100, Params: map[string]float64{"m": 2}, Seed: 7}}, Colors: 2},
			{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "ba", N: 100, Params: map[string]float64{"m": 2}, Seed: 7}}, Colors: 2, Rule: "smp"},
		},
		"edge-list-forms": {
			{Substrate: SubstrateSpec{Edges: &EdgeListSpec{N: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}}}}, Colors: 2, Rule: "generalized-smp"},
			// Reversed orientation, shuffled order, duplicate edge.
			{Substrate: SubstrateSpec{Edges: &EdgeListSpec{N: 4, Edges: [][2]int{{3, 2}, {1, 0}, {2, 1}, {0, 1}}}}, Colors: 2},
		},
	}
	seen := map[string]string{} // digest -> group, to assert groups stay distinct
	for group, specs := range groups {
		want, err := specs[0].Digest()
		if err != nil {
			t.Fatalf("%s: Digest: %v", group, err)
		}
		if !strings.HasPrefix(want, "sha256:") || len(want) != len("sha256:")+64 {
			t.Fatalf("%s: digest %q is not a sha256 address", group, want)
		}
		for i, sp := range specs[1:] {
			got, err := sp.Digest()
			if err != nil {
				t.Fatalf("%s[%d]: Digest: %v", group, i+1, err)
			}
			if got != want {
				t.Errorf("%s[%d]: alias form digests to %s, canonical form to %s", group, i+1, got, want)
			}
		}
		if other, dup := seen[want]; dup {
			t.Errorf("groups %s and %s collide on digest %s", group, other, want)
		}
		seen[want] = group
	}
}

// TestSpecDigestMatchesBuiltSystem pins Canonical against the constructor:
// the digest of an alias-form spec equals the digest of the spec the built
// System reports, for every substrate family.
func TestSpecDigestMatchesBuiltSystem(t *testing.T) {
	specs := []*Spec{
		{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "cordalis", Rows: 5, Cols: 5}}, Colors: 6},
		{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "ws", N: 50, Params: map[string]float64{"k": 4, "beta": 0.1}, Seed: 3}}, Colors: 2},
		{Substrate: SubstrateSpec{Edges: &EdgeListSpec{N: 3, Edges: [][2]int{{2, 0}, {0, 1}}}}, Colors: 2},
	}
	for _, sp := range specs {
		want, err := sp.Digest()
		if err != nil {
			t.Fatalf("Digest: %v", err)
		}
		sys, err := sp.New()
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		built, err := sys.Spec()
		if err != nil {
			t.Fatalf("System.Spec: %v", err)
		}
		got, err := built.Digest()
		if err != nil {
			t.Fatalf("built Digest: %v", err)
		}
		if got != want {
			t.Errorf("spec digest %s != built system's spec digest %s", want, got)
		}
	}
}

// TestSpecDigestRejectsUnknownNames verifies digesting fails loudly instead
// of addressing a system that cannot be built.
func TestSpecDigestRejectsUnknownNames(t *testing.T) {
	bad := []*Spec{
		{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "moebius", Rows: 5, Cols: 5}}, Colors: 2},
		{Substrate: SubstrateSpec{Generator: &GeneratorSpec{Name: "hypercube", N: 8}}, Colors: 2},
		{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "mesh", Rows: 5, Cols: 5}}, Colors: 2, Rule: "no-such-rule"},
	}
	for i, sp := range bad {
		if _, err := sp.Digest(); err == nil {
			t.Errorf("bad[%d]: Digest succeeded, want error", i)
		}
	}
}

// TestFileSpecDigestSeparatesRuns pins the server cache key: the FileSpec
// digest folds in the initial and run sections, so the same system under
// different runs gets different addresses, while alias forms of the same
// complete run collide.
func TestFileSpecDigestSeparatesRuns(t *testing.T) {
	base := func() *FileSpec {
		return &FileSpec{
			System:  Spec{Substrate: SubstrateSpec{Topology: &TopologySpec{Name: "mesh", Rows: 9, Cols: 9}}, Colors: 5, Rule: "smp"},
			Initial: &InitialSpec{Config: "minimum", Seed: 1},
			Run:     RunSpec{Target: 1, StopWhenMonochromatic: true},
		}
	}
	a := base()
	d1, err := a.Digest()
	if err != nil {
		t.Fatalf("Digest: %v", err)
	}

	alias := base()
	alias.System.Substrate.Topology.Name = "toroidal-mesh"
	if d2, _ := alias.Digest(); d2 != d1 {
		t.Errorf("topology alias changed the file digest: %s vs %s", d2, d1)
	}

	// Non-wire attachments must not contribute to the address.
	attached := base()
	attached.Run.observers = []Observer{NewHistoryRecorder()}
	attached.Run.freshBuffers = true
	attached.Run.cpEvery, attached.Run.cpSink = 4, func(*Checkpoint) error { return nil }
	if d3, _ := attached.Digest(); d3 != d1 {
		t.Errorf("process-local attachments changed the file digest: %s vs %s", d3, d1)
	}

	diffRun := base()
	diffRun.Run.MaxRounds = 3
	if d4, _ := diffRun.Digest(); d4 == d1 {
		t.Errorf("different run spec kept the same file digest %s", d4)
	}

	diffInitial := base()
	diffInitial.Initial.Config = "cross"
	if d5, _ := diffInitial.Digest(); d5 == d1 {
		t.Errorf("different initial spec kept the same file digest %s", d5)
	}
}

// TestFileSpecDigestPinned pins one FileSpec digest, format version
// included: a change to the canonical form or to resultFormat must show up
// here, deliberately.  The digest must also differ from the hash of the
// same spec without the version, which is what keeps results cached by a
// build of an older format unreachable.
func TestFileSpecDigestPinned(t *testing.T) {
	fs, err := ParseFileSpec([]byte(`{"system":{"substrate":{"topology":{"name":"mesh","rows":9,"cols":9}},"colors":5},"initial":{"config":"minimum","seed":1},"run":{"target":1,"stop_when_monochromatic":true,"detect_cycles":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs.Digest()
	if err != nil {
		t.Fatal(err)
	}
	const want = "sha256:0d356bedf1cf5a40213130fe65b1feeeff066e6fcdbed2bbdf353a163a4041ad"
	if got != want {
		t.Fatalf("digest = %s, want %s", got, want)
	}
	system, err := fs.System.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	unversioned, err := digestOf(&FileSpec{System: *system, Initial: fs.Initial, Run: fs.Run})
	if err != nil {
		t.Fatal(err)
	}
	if unversioned == got {
		t.Fatal("the format version does not contribute to the digest")
	}
}
