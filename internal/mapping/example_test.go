package mapping_test

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/conf"
	"repro/internal/mapping"
	"repro/internal/sparksim"
)

// Signatures characterize how a workload responds to configuration;
// similar workloads can share tuning knowledge.
func ExampleMapper() {
	space := conf.SparkSpace()
	m := mapping.NewMapper(space, 6, 1)

	characterize := func(w sparksim.Workload, seed uint64) mapping.Signature {
		ev := sparksim.NewEvaluator(sparksim.PaperCluster(), w, seed, 480)
		return m.Characterize(func(c conf.Config) float64 {
			return ev.EvaluateSpec(c, backend.EvalSpec{}).Seconds
		})
	}
	if err := m.Register("PageRank", characterize(sparksim.PageRank(5), 2)); err != nil {
		panic(err)
	}

	// A new dataset of the same family maps straight back. (With only
	// six probes and cap-truncated runs the correlation is rough but
	// positive; production settings use more probes.)
	probe := characterize(sparksim.PageRank(10), 3)
	match, ok := m.BestMatch(probe)
	fmt.Println(ok, match.Workload, match.Similarity > 0.3)
	// Output:
	// true PageRank true
}
