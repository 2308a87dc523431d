package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// On a shared virtual machine the speed of a CPU moves by a quarter or
// more over minutes, as neighbours come and go, in CPU time as much as in
// wall time. So a run also times a fixed piece of work of its own, spread
// over the run's rounds, and states every time figure at a reference
// speed: the figure as measured, divided by how much slower than
// calRefRep the fixed work ran. A change to the program moves the scaled
// figures exactly as it moves the measured ones; a change in the
// machine's speed does not. The work uses none of the program's code.

// One repetition of the fixed work is a JSON round trip of a 64-entry
// admission-like batch, a sort and a chain of dependent reads across a
// table larger than the caches: the daemon's kinds of work.
type calEntry struct {
	Req  [2]float64 `json:"req"`
	Need [2]float64 `json:"need"`
}

// calRefRep is the reference time of one repetition.
const calRefRep = 1100 * time.Microsecond

// calTableLen is the length of the randomly read table: 32 MiB.
const calTableLen = 8 << 20

// sink keeps the table walk from being optimised away.
var sink uint32

// calRepsPerRun is how many repetitions one run makes in all.
const calRepsPerRun = 400

// calibrate runs reps repetitions of the fixed work and returns how long
// they took.
func calibrate(reps int) time.Duration {
	rng := rand.New(rand.NewSource(1))
	batch := make([]calEntry, 64)
	for i := range batch {
		batch[i] = calEntry{[2]float64{rng.Float64(), rng.Float64()}, [2]float64{rng.Float64(), rng.Float64()}}
	}
	xs := make([]float64, 4096)
	// A table larger than the caches, read at random as the daemon reads
	// its park.
	table := make([]uint32, calTableLen)
	for i := range table {
		table[i] = uint32(rng.Intn(calTableLen))
	}
	start := time.Now()
	for rep := 0; rep < reps; rep++ {
		data, err := json.Marshal(batch)
		if err != nil {
			panic(err) // fixed, always-encodable input
		}
		var back []calEntry
		if err := json.Unmarshal(data, &back); err != nil {
			panic(err)
		}
		for i := range xs {
			xs[i] = rng.Float64()
		}
		sort.Float64s(xs)
		j := uint32(rep)
		for i := 0; i < 4096; i++ {
			j = table[j]
		}
		sink += j
	}
	return time.Since(start)
}

// speed is what a run's calibration measured.
type speed struct {
	Reps int
	Took time.Duration
}

// slowdown is how much slower than the reference the machine ran: 1.2
// means the fixed work took 20% longer than calRefRep per repetition.
func (s speed) slowdown() float64 {
	return float64(s.Took) / float64(time.Duration(s.Reps)*calRefRep)
}

func (s speed) String() string {
	return fmt.Sprintf("slowdown %.4f: %d calibration reps took %v", s.slowdown(), s.Reps, s.Took)
}
