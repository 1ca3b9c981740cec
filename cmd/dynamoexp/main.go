// Command dynamoexp regenerates the paper's tables and figures (the
// experiment index E01..E18 that -list prints) and prints them as text, CSV or
// markdown.  It is a thin CLI over the public repro/dynmon package.
//
// Examples:
//
//	dynamoexp                 # run every experiment
//	dynamoexp -exp E07        # run a single experiment
//	dynamoexp -list           # list the experiment index
//	dynamoexp -exp E09 -csv   # CSV output
//
// Beyond the fixed index, -spec runs an ad-hoc experiment described by a
// spec file (the JSON form of dynmon.FileSpec — the same files
// cmd/dynamosim runs and emits with -emit-spec) and prints its verification
// report:
//
//	dynamoexp -spec specs/mesh-9x9-minimum.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/dynmon"
)

func main() {
	var (
		expID    = flag.String("exp", "", "run only the experiment with this id (e.g. E07)")
		list     = flag.Bool("list", false, "list the experiment index and exit")
		csv      = flag.Bool("csv", false, "print tables as CSV")
		markdown = flag.Bool("markdown", false, "print tables as markdown")
		outDir   = flag.String("out", "", "also write one file per experiment into this directory")
		specFile = flag.String("spec", "", "run the ad-hoc experiment described by this spec file and print its report")
	)
	flag.Parse()

	if *specFile != "" {
		runSpec(*specFile)
		return
	}

	experiments := dynmon.Experiments()
	if *list {
		for _, e := range experiments {
			fmt.Printf("%s  %-60s  paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}
	if *expID != "" {
		e, ok := dynmon.ExperimentByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "dynamoexp: unknown experiment %q (use -list)\n", *expID)
			os.Exit(1)
		}
		experiments = []dynmon.Experiment{e}
	}
	if *outDir != "" {
		format := dynmon.FormatText
		if *csv {
			format = dynmon.FormatCSV
		} else if *markdown {
			format = dynmon.FormatMarkdown
		}
		files, err := dynmon.ExportExperiments(*outDir, experiments, format)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dynamoexp:", err)
			os.Exit(1)
		}
		for _, f := range files {
			fmt.Println("wrote", f)
		}
		return
	}
	for _, e := range experiments {
		fmt.Print(dynmon.Banner(fmt.Sprintf("%s  %s", e.ID, e.Title)))
		table := e.Run()
		switch {
		case *csv:
			fmt.Print(table.CSV())
		case *markdown:
			fmt.Print(table.Markdown())
		default:
			fmt.Print(table.Render())
		}
		fmt.Println()
	}
}

// runSpec verifies the system/initial/run triple of a spec file and prints
// the resulting report — the spec-driven twin of the fixed experiment index.
func runSpec(file string) {
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	fs, err := dynmon.ParseFileSpec(data)
	if err != nil {
		fatal(err)
	}
	// FileSpec.Build is the one shared construction path; see dynamosim.
	sys, cons, _, err := fs.Build()
	if err != nil {
		fatal(err)
	}
	fmt.Print(dynmon.Banner(fmt.Sprintf("spec  %s on %s", cons.Name, sys)))
	res, err := sys.RunSpecced(context.Background(), cons.Coloring, fs.Run)
	if err != nil {
		fatal(err)
	}
	fmt.Println(sys.ReportFor(cons, res).Summary())
	fmt.Printf("kernel=%s workers=%d rounds=%d fixed-point=%v cycle=%v\n",
		res.Kernel, res.Workers, res.Rounds, res.FixedPoint, res.Cycle)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dynamoexp:", err)
	os.Exit(1)
}
