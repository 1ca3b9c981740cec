// Package repro reproduces the paper "Dynamic Monopolies in Colored Tori"
// (Brunetti, Lodi, Quattrociocchi, IPPS Workshops 2011, arXiv:1101.5915).
//
// The repository implements, from scratch and with the standard library only:
//
//   - the three 4-regular torus topologies studied by the paper (toroidal
//     mesh, torus cordalis, torus serpentinus) — internal/grid;
//   - the SMP-Protocol ("simple majority with persuadable entities"), its
//     degree-aware generalization and the bi-colored baseline rules of
//     Flocchini et al. — internal/rules;
//   - a topology-generic synchronous simulation engine: four bit-identical
//     stepping tiers (full sweep, sharded parallel, dirty frontier,
//     word-parallel bitplane) over any CSR substrate — the three tori or
//     arbitrary graphs — plus a bit-sliced ensemble tier stepping up to 64
//     two-color replicas per word op for batched runs, and a time-varying
//     run mode that masks link availability per round — internal/sim;
//   - k-block / non-k-block / forest structural analysis — internal/blocks;
//   - the paper's dynamo constructions, lower bounds, round-count formulas
//     and counterexamples — internal/dynamo;
//   - the experiment harness regenerating every table and figure of the
//     paper — internal/analysis and bench_test.go;
//   - the extensions sketched in the paper's conclusions, all running on the
//     unified engine: general graphs with a cached CSR view and target-set
//     heuristics (internal/graphs), link-availability models for the
//     time-varying mode (internal/tvg), bounded-confidence opinions
//     (internal/opinion);
//   - the public, context-aware façade with pluggable rule/topology/
//     generator registries, graph and time-varying systems, observers and
//     batched sessions — dynmon (which replaced the deleted internal/core
//     façade; CI keeps it deleted).  Its surface is spec-driven and
//     streaming: systems and runs round-trip through JSON specs (Spec,
//     RunSpec, the spec files under specs/), runs stream round by round as
//     iter.Seq2 step sequences (System.Steps), and serializable checkpoints
//     migrate long runs across processes (Step.Checkpoint, System.Resume)
//     bit-identically to uninterrupted runs.
//
// See README.md for a quickstart and the repository layout.  The
// experiment index E01..E18 (`go run ./cmd/dynamoexp -list`) is generated
// by internal/analysis; each table's note records where the measurements
// depart from the paper.
package repro
