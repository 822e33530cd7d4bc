package patch_test

import (
	"strings"
	"testing"

	"fpvm/internal/machine"
	"fpvm/internal/patch"
	"fpvm/internal/workloads"
)

// imageSink keeps each benchmarked image live, so the build is not elided.
var imageSink *machine.Image

// BenchmarkAnalyze times the ahead-of-time half of the pipeline for each
// Figure 12 workload: the §4.2 value-set analysis and the image build
// (predecode, per-instruction charge and class, the site table), which is
// what patch.NewImage does once per program. Assembly is outside the loop.
func BenchmarkAnalyze(b *testing.B) {
	for _, w := range workloads.All() {
		prog, err := w.Build()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(strings.TrimSpace(w.Name+" "+w.Specifics), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img, err := patch.NewImage(prog)
				if err != nil {
					b.Fatal(err)
				}
				imageSink = img
			}
		})
	}
}
