package dynmon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// TestCounterStreamsGolden pins the counter-based random streams by digest:
// the Result bytes of small noisy, uniform-async and vertex-clock runs, one
// bernoulli coloring and one noisy ensemble report.  The digests were recorded before the per-round
// hash prefixes were hoisted out of the inner loops, so any drift in a
// fault draw, an activation mask or a seeding draw — a mistyped constant,
// a reordered coordinate — fails here rather than only in the long
// phase-transition reproduction.
func TestCounterStreamsGolden(t *testing.T) {
	sys, err := New(Mesh(24, 20), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	graph, err := New(BarabasiAlbert(300, 3, 42), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		sys  *System
		opts []RunOption
		want string
	}{
		{"noisy", sys, []RunOption{Noisy(0.05, 21)}, "523bab7db247ea28ee4febb319de9814eab1026cf368eeae6ba5e17441cfadc5"},
		{"noisy-sharded", sys, []RunOption{Noisy(0.05, 21), Parallel(3)}, "fcad561b71b92d10c66868d607e8dbdecc0b27485e0fd863916f5ae3d581a920"},
		{"uniform-async", sys, []RunOption{UniformAsync(0.6, 11)}, "516bcf5f2ce7421048b4475df557b7b7909ecce14c21d6aff46bc0952d6782b7"},
		{"uniform-async-noisy-sharded", sys, []RunOption{UniformAsync(0.6, 11), Noisy(0.2, 5), Parallel(2)}, "6203e2b98ed05120d03553868015d9dff7e17ea4e6420165357b570213942e3f"},
		{"vertex-clock", sys, []RunOption{VertexClock(3, 13)}, "169d27b52618d71a990a83d766973fdc79e1644ad8bbad5d83f6f0171b611c0c"},
		{"random-sequential-noisy", sys, []RunOption{RandomSequential(12), Noisy(0.1, 22)}, "1f3bf6298b7d8c78bf50ef0993c7c8bd9efc000570dda8561b30c07c4fdf7cf3"},
		// The graph substrate has no compiled rule table: the generic loop.
		{"graph-uniform-async-noisy", graph, []RunOption{UniformAsync(0.8, 3), Noisy(0.03, 4)}, "52b55cf2b39cdcfd70aada0371219e6ba487643e4a677e527f91f4aeb493c72d"},
	}
	for _, tc := range runs {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]RunOption{Target(1), MaxRounds(40)}, tc.opts...)
			res, err := tc.sys.Run(context.Background(), tc.sys.RandomColoring(7), opts...)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if got := sha256Hex(b); got != tc.want {
				t.Fatalf("Result digest %s, want %s", got, tc.want)
			}
		})
	}
	t.Run("bernoulli", func(t *testing.T) {
		sys, err := New(Mesh(32, 28), Colors(4))
		if err != nil {
			t.Fatal(err)
		}
		cons, err := sys.BuildInitial(&InitialSpec{Config: "bernoulli", Density: 0.45, Seed: 5}, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(cons.Coloring)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sha256Hex(b), "a69fc07570df50baaeca3b41d0c4857598439ec5538c2bc88c48bd48f540ca00"; got != want {
			t.Fatalf("coloring digest %s, want %s", got, want)
		}
	})
	t.Run("ensemble", func(t *testing.T) {
		b, err := runEnsemble(t, parseEnsembleDoc(t), 2).JSON()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sha256Hex(b), "0d6439bc0662e1c9f654b274f5023319b8043a91d887ad46c54d92793bc5abbc"; got != want {
			t.Fatalf("report digest %s, want %s", got, want)
		}
	})
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
