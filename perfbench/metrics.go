package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// declaredLayers reads the per-layer metrics BENCHMARK.json declares, as
// name → unit. It is the only list of them the program keeps.
func declaredLayers(benchmarkJSON string) (map[string]string, error) {
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return nil, err
	}
	var b struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	if len(b.PerLayer) == 0 {
		return nil, fmt.Errorf("%s declares no per-layer metrics", benchmarkJSON)
	}
	layers := make(map[string]string, len(b.PerLayer))
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return layers, nil
}

// finishPerLayer checks that every metric a traced run measured is declared
// with the unit it was measured in, then reports 0 for every declared metric
// the run's workload does not exercise, so each traced run reports the full
// set.
func finishPerLayer(res *result, layers map[string]string) error {
	for name, m := range res.metrics {
		if unit, ok := layers[name]; !ok || unit != m.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not declared with that unit in BENCHMARK.json", name, m.Unit)
		}
	}
	for name, unit := range layers {
		if _, ok := res.metrics[name]; !ok {
			res.set(name, unit, 0)
		}
	}
	return nil
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
