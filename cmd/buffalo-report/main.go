// Command buffalo-report inspects and compares run manifests written by
// buffalo-train -report, buffalo-serve -report and experiments -report.
//
// Usage:
//
//	buffalo-report show run.json
//	buffalo-report diff base.json current.json
//
// show pretty-prints one manifest. diff aligns two manifests by flattened
// metric key and prints every changed value ("(new)"/"(gone)" for one-sided
// keys).
package main

import (
	"fmt"
	"os"

	"buffalo/internal/obs/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "show":
		err = show(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "buffalo-report: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "buffalo-report:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  buffalo-report show <manifest.json>
  buffalo-report diff <base.json> <current.json>`)
	os.Exit(2)
}

func show(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("show: want exactly one manifest path, got %d args", len(args))
	}
	m, err := report.ReadFile(args[0])
	if err != nil {
		return err
	}
	return report.WriteSummary(os.Stdout, m)
}

func diff(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("diff: want <base.json> <current.json>, got %d args", len(args))
	}
	base, err := report.ReadFile(args[0])
	if err != nil {
		return err
	}
	cur, err := report.ReadFile(args[1])
	if err != nil {
		return err
	}
	return report.WriteDiff(os.Stdout, report.Diff(base, cur))
}
