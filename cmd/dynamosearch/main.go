// Command dynamosearch looks for dynamos by randomized (and, for tiny tori,
// exhaustive) search, independently of the paper's constructions.  It is the
// tool that produced the sub-bound counterexamples that experiment E17
// (`dynamoexp -exp E17`) records.
//
// Examples:
//
//	dynamosearch -topology mesh -rows 4 -cols 4 -colors 5            # search below the bound
//	dynamosearch -topology mesh -rows 5 -cols 5 -size 7 -trials 5000 # one specific size
//	dynamosearch -topology mesh -rows 3 -cols 3 -size 3 -exhaustive  # enumerate placements
//
// The system under search can also come from a spec file (a dynmon.Spec, or
// a dynmon.FileSpec whose system section is used; the search parameters
// stay on flags), and -emit-spec prints the system spec the flags denote:
//
//	dynamosearch -topology mesh -rows 4 -cols 4 -colors 5 -emit-spec > sys.json
//	dynamosearch -spec sys.json -trials 500
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/dynmon"
	"repro/internal/search"
)

func main() {
	var (
		specFile   = flag.String("spec", "", "search the system described by this spec file instead of the topology flags")
		emitSpec   = flag.Bool("emit-spec", false, "print the system spec this invocation denotes and exit")
		topology   = flag.String("topology", "mesh", "torus topology: "+strings.Join(dynmon.TopologyNames(), ", "))
		rows       = flag.Int("rows", 4, "number of rows (m)")
		cols       = flag.Int("cols", 4, "number of columns (n)")
		colors     = flag.Int("colors", 5, "palette size |C|")
		size       = flag.Int("size", 0, "seed size to search for (0 = scan downward from the paper bound)")
		trials     = flag.Int("trials", 2000, "random configurations per seed size")
		anyDynamo  = flag.Bool("any", false, "accept non-monotone dynamos too")
		exhaustive = flag.Bool("exhaustive", false, "enumerate every seed placement (tiny tori only)")
		seed       = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()

	sysSpec := &dynmon.Spec{
		Substrate: dynmon.SubstrateSpec{Topology: &dynmon.TopologySpec{Name: *topology, Rows: *rows, Cols: *cols}},
		Colors:    *colors,
	}
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		fs, err := dynmon.ParseFileSpec(data)
		if err != nil {
			fatal(err)
		}
		sysSpec = &fs.System
	}
	if *emitSpec {
		out, err := sysSpec.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(out)
		return
	}

	sys, err := sysSpec.New()
	if err != nil {
		fatal(err)
	}
	if sys.Topology() == nil {
		fatal(fmt.Errorf("dynamo search is defined on torus topologies; the spec describes a graph substrate"))
	}
	topo := sys.Topology()
	p := sys.Palette()
	bound := sys.LowerBound()
	d := topo.Dims()
	fmt.Printf("topology=%s size=%dx%d colors=%d paper-bound=%d\n", topo.Name(), d.Rows, d.Cols, p.K, bound)

	opt := search.Options{Trials: *trials, RequireMonotone: !*anyDynamo, Seed: *seed}

	report := func(found *search.Found) {
		fmt.Printf("found a %s dynamo of size %d (converges in %d rounds):\n",
			kindLabel(found.Monotone), found.SeedSize, found.Rounds)
		fmt.Print(dynmon.Render(found.Coloring, 1))
		if found.SeedSize < bound {
			fmt.Printf("NOTE: this is below the paper's Theorem bound of %d — see experiment E17 (dynamoexp -exp E17).\n", bound)
		}
	}

	switch {
	case *exhaustive:
		target := *size
		if target == 0 {
			target = bound - 1
		}
		found, placements, err := search.ExhaustiveMonotoneDynamo(topo, target, 1, p, 8, 0)
		if err != nil {
			fatal(err)
		}
		if found == nil {
			fmt.Printf("no monotone dynamo of size %d exists among %d placements (with the random paddings tried)\n", target, placements)
			return
		}
		report(found)
	case *size > 0:
		found := search.RandomDynamo(topo, *size, 1, p, opt)
		if found == nil {
			fmt.Printf("no dynamo of size %d found in %d trials\n", *size, *trials)
			return
		}
		report(found)
	default:
		best, found := search.SmallestRandomDynamo(topo, bound, 1, p, opt)
		if found == nil {
			fmt.Printf("no dynamo below the bound found in %d trials per size\n", *trials)
			return
		}
		fmt.Printf("smallest size found: %d (bound %d)\n", best, bound)
		report(found)
	}
}

func kindLabel(monotone bool) string {
	if monotone {
		return "monotone"
	}
	return "non-monotone"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dynamosearch:", err)
	os.Exit(1)
}
