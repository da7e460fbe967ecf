package main

import (
	"fmt"
	"runtime"

	"pstlbench/internal/report"
	"pstlbench/internal/stream"
)

// runStreamNative measures the host's STREAM bandwidth over a worker sweep
// (n elements per array, 3 arrays x 8 bytes; best of 3 per kernel).
func runStreamNative(n int) {
	t := &report.Table{
		Title:   fmt.Sprintf("Native STREAM, %d elements/array", n),
		Headers: []string{"Workers", "Copy", "Scale", "Add", "Triad (GB/s)"},
	}
	for w := 1; w <= runtime.GOMAXPROCS(0); w *= 2 {
		r := stream.Native(w, n, 3)
		t.AddRow(fmt.Sprintf("%d", w),
			fmt.Sprintf("%.2f", r.Copy), fmt.Sprintf("%.2f", r.Scale),
			fmt.Sprintf("%.2f", r.Add), fmt.Sprintf("%.2f", r.Triad))
	}
	fmt.Print(t.String())
}
