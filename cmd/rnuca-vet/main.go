// Command rnuca-vet runs the repo's static analyzer suite (package
// rnuca/internal/analysis) over the given package patterns and reports
// every finding. Exit status 1 means findings; 2 means the analysis
// itself failed, a package that does not build included. It must run
// from inside the module: the loader lists packages, and builds the
// export data their imports resolve from, through the go command.
//
//	go run ./cmd/rnuca-vet ./...
//	go run ./cmd/rnuca-vet -json ./... | jq '.[].code'
//	go run ./cmd/rnuca-vet -sarif ./... > vet.sarif
//
// -update regenerates the api-frozen.txt snapshots of packages that
// carry them, for deliberate API changes.
// Every finding fails the run: fix it, or waive it in source with an
// //rnuca:*-ok annotation and a reason.
//
// See internal/analysis/doc.go for the diagnostic codes and the
// //rnuca: annotation vocabulary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rnuca/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (file/line/col/code/analyzer/message)")
	sarifOut := flag.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log for code-scanning upload")
	list := flag.Bool("codes", false, "list every diagnostic code the suite can emit and exit")
	update := flag.Bool("update", false, "regenerate api-frozen.txt snapshots instead of reporting apifreeze findings")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: rnuca-vet [-json|-sarif] [-update] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range analysis.AllCodes() {
			fmt.Println(c)
		}
		return
	}

	analysis.UpdateAPISnapshots = *update

	pkgs, err := analysis.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnuca-vet:", err)
		os.Exit(2)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "rnuca-vet:", err)
		os.Exit(2)
	}
	relativize(diags)

	switch {
	case *sarifOut:
		root, _ := os.Getwd()
		out, err := analysis.MarshalSARIF(diags, root)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rnuca-vet:", err)
			os.Exit(2)
		}
		os.Stdout.Write(append(out, '\n'))
	case *jsonOut:
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "rnuca-vet:", err)
			os.Exit(2)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// relativize rewrites diagnostic paths relative to the working
// directory (the module root, per the run-from-module contract), so
// findings and SARIF artifacts are machine-portable.
func relativize(diags []analysis.Diagnostic) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range diags {
		if rel, err := filepath.Rel(cwd, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = filepath.ToSlash(rel)
		}
	}
}
