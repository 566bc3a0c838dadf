// Command tracegen prints workload trace specs as JSON, with
// ground-truth summaries and rendered frames, so the inputs the
// experiments generate can be inspected.
//
// Usage:
//
//	tracegen -workload stationary-heavy -frames 600 -out spec.json
//	tracegen -workload all -frames 600 -summary
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"approxcache/internal/imu"
	"approxcache/internal/trace"
	"approxcache/internal/vision"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "all",
			"stationary-heavy | handheld-mix | walking-tour | panning-sweep | all")
		frames  = fs.Int("frames", 600, "workload length in frames")
		seed    = fs.Int64("seed", 1, "random seed")
		out     = fs.String("out", "", "write the spec JSON to this file (single workload only)")
		summary = fs.Bool("summary", false, "generate the workload and print a ground-truth summary")
		render  = fs.String("render", "", "render every Nth frame as PNG into this directory (single workload only)")
		every   = fs.Int("every", 15, "frame stride for -render")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	specs, err := selectSpecs(*workload, *frames, *seed)
	if err != nil {
		return err
	}
	if *out != "" {
		if len(specs) != 1 {
			return fmt.Errorf("-out requires a single workload, got %d", len(specs))
		}
		data, err := trace.EncodeSpec(specs[0])
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, len(data)+1)
		return nil
	}
	if *render != "" {
		if len(specs) != 1 {
			return fmt.Errorf("-render requires a single workload, got %d", len(specs))
		}
		return renderFrames(specs[0], *render, *every)
	}
	for _, spec := range specs {
		data, err := trace.EncodeSpec(spec)
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		if *summary {
			if err := printSummary(spec); err != nil {
				return err
			}
		}
	}
	return nil
}

// renderFrames writes every stride-th frame of the workload as a PNG
// named frame-<index>-class<c>-scene<s>.png.
func renderFrames(spec trace.Spec, dir string, stride int) error {
	if stride <= 0 {
		return fmt.Errorf("-every must be positive, got %d", stride)
	}
	w, err := trace.Generate(spec)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	written := 0
	for _, fr := range w.Frames {
		if fr.Index%stride != 0 {
			continue
		}
		name := fmt.Sprintf("frame-%04d-class%d-scene%d.png", fr.Index, fr.Class, fr.Scene)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = vision.EncodePNG(f, fr.Image)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		written++
	}
	fmt.Printf("rendered %d frames of %s into %s\n", written, spec.Name, dir)
	return nil
}

func selectSpecs(name string, frames int, seed int64) ([]trace.Spec, error) {
	switch name {
	case "all":
		return trace.StandardSpecs(frames, seed), nil
	case "stationary-heavy":
		return []trace.Spec{trace.StationaryHeavy(frames, seed)}, nil
	case "handheld-mix":
		return []trace.Spec{trace.HandheldMix(frames, seed)}, nil
	case "walking-tour":
		return []trace.Spec{trace.WalkingTour(frames, seed)}, nil
	case "panning-sweep":
		return []trace.Spec{trace.PanningSweep(frames, seed)}, nil
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
}

func printSummary(spec trace.Spec) error {
	w, err := trace.Generate(spec)
	if err != nil {
		return err
	}
	scenes := map[int]struct{}{}
	classes := map[int]int{}
	regimes := map[imu.Regime]int{}
	for _, f := range w.Frames {
		scenes[f.Scene] = struct{}{}
		classes[f.Class]++
		regimes[f.Regime]++
	}
	fmt.Printf("summary %s: %d frames over %v, %d scenes, %d imu samples\n",
		spec.Name, len(w.Frames), spec.Duration(), len(scenes), len(w.IMU))
	fmt.Printf("  regimes:")
	for _, r := range []imu.Regime{imu.Stationary, imu.Handheld, imu.Walking, imu.Panning} {
		if n := regimes[r]; n > 0 {
			fmt.Printf(" %s=%d", r, n)
		}
	}
	fmt.Println()
	fmt.Printf("  class frame counts:")
	for c := 0; c < spec.NumClasses; c++ {
		fmt.Printf(" %d:%d", c, classes[c])
	}
	fmt.Println()
	return nil
}
