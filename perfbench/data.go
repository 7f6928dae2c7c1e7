package main

import (
	"fmt"

	"trajpattern/internal/datagen"
	"trajpattern/internal/geom"
	"trajpattern/internal/stat"
	"trajpattern/internal/traj"
)

// The movement each workload observes is fixed; the run seed only
// chooses the order in which the objects reach the program. Reseeding the
// herds themselves changes the miner's termination iteration, and with
// it the NM-eval count by up to 2.3× (17k–41k evals at the e3 base
// point), which would drown every bound the benchmark sets.
const (
	zebraPopulationSeed = 7 // the e3 base dataset (23,859 NM evals over 129 cells)
	busFleetSeed        = 7
)

// objectOrder is the order, drawn from the run seed, in which the n
// objects reach the program. Geometric transforms are not drawn:
// mirroring or swapping the axes renumbers the grid cells, and the
// miner's lexicographic tie-breaks then walk a different candidate set
// (39,204 instead of 23,859 NM evals at the e3 base point when x is
// mirrored).
func objectOrder(seed uint64, n int) []int {
	return stat.NewRNG(seed ^ 0x9E3779B97F4A7C15).Perm(n)
}

// zebraDataset is the paper's ZebraNet-style base workload (5 herds,
// U = 0.02, c = 2) with s trajectories of average length l, in the
// seed's order.
func zebraDataset(s, l int, seed uint64) (traj.Dataset, error) {
	base, err := datagen.ZebraDataset(datagen.ZebraConfig{
		NumZebras: s,
		AvgLen:    l,
		NumGroups: 5,
		Seed:      zebraPopulationSeed,
	}, 0.02, 2)
	if err != nil {
		return nil, err
	}
	ds := make(traj.Dataset, len(base))
	for i, j := range objectOrder(seed, len(base)) {
		ds[i] = base[j].Clone()
	}
	return ds, nil
}

// busStream is one bus's location reports: its days concatenated into
// one periodic stream, report n at time n.
type busStream struct {
	obj  string
	path []geom.Point
}

func (b busStream) at(n int) geom.Point { return b.path[n%len(b.path)] }

// busStreams returns the 50 buses of the bus generator (5 routes × 10),
// in the seed's order. Periodic streams keep the mined windows
// stationary, so generation cost does not wander through a run.
func busStreams(seed uint64) ([]busStream, error) {
	traces, err := datagen.Buses(datagen.BusConfig{Routes: 5, BusesPerRoute: 10, Seed: busFleetSeed})
	if err != nil {
		return nil, err
	}
	var order []int
	byBus := map[int][]geom.Point{}
	for _, t := range traces {
		id := t.Route*100 + t.Bus
		if _, seen := byBus[id]; !seen {
			order = append(order, id)
		}
		byBus[id] = append(byBus[id], t.Path...)
	}
	out := make([]busStream, len(order))
	for i, j := range objectOrder(seed, len(order)) {
		id := order[j]
		out[i] = busStream{obj: fmt.Sprintf("bus-%d-%02d", id/100, id%100), path: byBus[id]}
	}
	return out, nil
}
