package matrix

import "testing"

// BenchmarkSweepSetup prices what a sweep pays before its first cell runs:
// building the standard sweep over seeds 1–10 and compiling each of its 240
// cells afresh, as the layered benchmark's set-up does (without its clock
// calibration). Nothing is cached between cells, so every figure cell
// builds its graph.
func BenchmarkSweepSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src, err := StandardSweep(Seeds(1, 10))
		if err != nil {
			b.Fatal(err)
		}
		for c := 0; c < src.Len(); c++ {
			if _, err := src.Cell(c).Params.Compile(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
}
