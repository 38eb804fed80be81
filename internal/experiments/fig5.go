package experiments

import (
	"strconv"

	"jvmpower/internal/analysis"
	"jvmpower/internal/workloads"
)

// Fig5Benchmarks reproduces Figure 5: the benchmark table — suites, names,
// and descriptions — extended with the structural parameters of each
// generated analog.
func (r *Runner) Fig5Benchmarks() error { return r.RunFigure("fig5") }

func (r *Runner) fig5Plan() (*figurePlan, error) {
	return &figurePlan{render: r.fig5Render}, nil
}

func (r *Runner) fig5Render() error {
	r.printf("\n== Figure 5: benchmark selection ==\n")
	t := analysis.NewTable("Suite", "Benchmark", "Description", "Classes", "Methods", "Alloc", "Live")
	for _, b := range workloads.All() {
		prog := b.Program()
		t.AddRow(
			b.Suite,
			b.Name,
			b.Description,
			strconv.Itoa(len(prog.Classes)),
			strconv.Itoa(len(prog.Methods)),
			b.Profile.AllocBytes.String(),
			b.Profile.LiveTarget.String(),
		)
	}
	_, err := t.WriteTo(r.Out)
	return err
}
