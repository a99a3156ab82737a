package groundwater

import "testing"

// scenarioFlow is the groundwater-coupled scenario's TRACE problem.
func scenarioFlow() FlowConfig {
	return FlowConfig{NX: 40, NY: 16, NZ: 12, Dx: 1.0,
		K:        LognormalK(40, 16, 12, 1e-4, 1.0, 42),
		HeadLeft: 12, HeadRight: 0, Porosity: 0.3}
}

var benchField *FlowField

// BenchmarkSolveFlow: one TRACE solve on the scenario's 40x16x12
// lognormal grid (7 296 unknowns), stencil assembly included.
func BenchmarkSolveFlow(b *testing.B) {
	cfg := scenarioFlow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := SolveFlow(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchField = f
	}
}

var benchDot float64

// BenchmarkStencilApply: one application of the assembled operator on
// the scenario's grid, the body of every CG iteration; ns/cell is per
// unknown.
func BenchmarkStencilApply(b *testing.B) {
	st, err := assemble(scenarioFlow())
	if err != nil {
		b.Fatal(err)
	}
	n := len(st.faces)
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i%17) - 8
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDot = st.apply(dst, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cell")
}
