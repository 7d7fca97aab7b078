// Command salsatrace generates and summarizes the synthetic traces that
// stand in for the paper's datasets (internal/stream documents how each is
// matched): the four named trace substitutes and arbitrary Zipf streams.
//
// Usage:
//
//	salsatrace -dataset NY18 -n 1000000            # summary statistics
//	salsatrace -zipf 1.2 -n 1000000 -emit          # stream item ids
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"salsa/internal/stream"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "salsatrace:", err)
		os.Exit(1)
	}
}

// run executes one salsatrace invocation, writing to stdout; main is only
// the exit-code shim so tests can drive the tool in-process.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("salsatrace", flag.ContinueOnError)
	var (
		dataset = fs.String("dataset", "", "trace stand-in: NY18, CH16, Univ2, YouTube")
		zipf    = fs.Float64("zipf", 0, "Zipf skew (alternative to -dataset)")
		n       = fs.Int("n", 1_000_000, "stream length")
		seed    = fs.Uint64("seed", 1, "generator seed")
		emit    = fs.Bool("emit", false, "write item ids to stdout instead of a summary")
		topk    = fs.Int("top", 10, "number of top items in the summary")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage already printed, exit 0
		}
		// The FlagSet has already reported the problem on stderr.
		return errors.New("invalid arguments")
	}

	var data []uint64
	var name string
	switch {
	case *dataset != "":
		ds, ok := stream.ByName(*dataset)
		if !ok {
			return fmt.Errorf("unknown dataset %q", *dataset)
		}
		data = ds.Generate(*n, *seed)
		name = ds.Name
	case *zipf > 0:
		u := *n / 10
		if u < 1024 {
			u = 1024
		}
		data = stream.Zipf(*n, u, *zipf, *seed)
		name = fmt.Sprintf("Zipf(%.2f)", *zipf)
	default:
		fs.Usage()
		return fmt.Errorf("need -dataset or -zipf")
	}

	if *emit {
		w := bufio.NewWriter(stdout)
		defer w.Flush()
		for _, x := range data {
			fmt.Fprintln(w, x)
		}
		return nil
	}

	exact := stream.NewExact()
	for _, x := range data {
		exact.Observe(x)
	}
	fmt.Fprintf(stdout, "trace:     %s (seed %d)\n", name, *seed)
	fmt.Fprintf(stdout, "volume:    %d\n", exact.Volume())
	fmt.Fprintf(stdout, "distinct:  %d\n", exact.Distinct())
	fmt.Fprintf(stdout, "entropy:   %.4f bits\n", exact.Entropy())
	fmt.Fprintf(stdout, "F2:        %.4g\n", exact.Moment(2))
	fmt.Fprintf(stdout, "top %d items:\n", *topk)
	for i, x := range exact.TopK(*topk) {
		f := exact.Count(x)
		fmt.Fprintf(stdout, "  %2d. item %-20d count %-10d (%.3f%% of volume)\n",
			i+1, x, f, 100*float64(f)/float64(exact.Volume()))
	}
	return nil
}
