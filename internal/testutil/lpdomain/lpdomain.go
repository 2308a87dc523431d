// Package lpdomain builds fixed-seed placement domains shaped like one shard
// of the daemon's LP-bound epoch workload: a 16-host slice of the 64-host
// cov-0.5 park and 32 Google-like services whose CPU needs fill 85% of the
// slice's CPU capacity, leaving half its memory free. Tests and benchmarks
// of the LP-bound tier (presolve, relaxation, engine epochs) share it, so
// they all measure the same instances.
package lpdomain

import (
	"math"
	"math/rand"

	"vmalloc/internal/core"
	"vmalloc/internal/vec"
	"vmalloc/internal/workload"
)

// Shape of a domain.
const (
	ParkHosts = 64   // hosts in the whole park
	Shards    = 4    // placement domains the park is split into
	Hosts     = 16   // hosts per domain
	Services  = 32   // services per domain
	NeedScale = 0.85 // total CPU need over the domain's CPU capacity
	MemSlack  = 0.5  // memory left free by the domain's services
	MemSigma  = 0.5  // log-normal sigma of service memory
	parkSeed  = 1
	parkCOV   = 0.5
)

// Park returns the 64-host cov-0.5 park.
func Park() []core.Node {
	return workload.Platform(workload.Scenario{
		Hosts: ParkHosts, COV: parkCOV, Mode: workload.HeteroBoth, Seed: parkSeed,
	}, rand.New(rand.NewSource(parkSeed)))
}

// Nodes returns domain s (0 <= s < Shards) of the park: hosts
// [s*Hosts, (s+1)*Hosts).
func Nodes(s int) []core.Node {
	return Park()[s*Hosts : (s+1)*Hosts]
}

// Sizes is the Google-like size distribution the services are drawn from.
func Sizes() *workload.Google {
	g := workload.DefaultGoogle()
	g.MemLogSigma = MemSigma
	return g
}

// Domain is one placement domain plus the CPU need per requested core its
// need updates reuse.
type Domain struct {
	P        *core.Problem
	CPUScale float64
}

// New draws domain s's services from seed.
func New(s int, seed int64) *Domain {
	rng := rand.New(rand.NewSource(seed))
	g := Sizes()
	nodes := Nodes(s)
	var capCPU, capMem float64
	for _, n := range nodes {
		capCPU += n.Aggregate[workload.CPU]
		capMem += n.Aggregate[workload.Mem]
	}
	cores := make([]int, Services)
	mems := make([]float64, Services)
	var sumCores, sumMem float64
	for j := range cores {
		cores[j] = g.SampleCores(rng)
		mems[j] = g.SampleMem(rng)
		sumCores += float64(cores[j])
		sumMem += mems[j]
	}
	cpuScale := NeedScale * capCPU / sumCores
	memScale := capMem * (1 - MemSlack) / sumMem
	p := &core.Problem{Nodes: nodes, Services: make([]core.Service, Services)}
	for j := range p.Services {
		need := float64(cores[j]) * cpuScale
		mem := mems[j] * memScale
		p.Services[j] = core.Service{
			ReqElem:  vec.Of(g.ElemCPUReq(), mem),
			ReqAgg:   vec.Of(g.ElemCPUReq(), mem),
			NeedElem: vec.Of(need/float64(cores[j]), 0),
			NeedAgg:  vec.Of(need, 0),
		}
	}
	return &Domain{P: p, CPUScale: cpuScale}
}

// Update is one need update: service J's CPU need becomes Need, spread
// over Cores requested cores.
type Update struct {
	J     int
	Cores int
	Need  float64
}

// NextUpdate draws a need update the way the epoch workload does: a random
// service gets a fresh core count from the size distribution.
func (d *Domain) NextUpdate(rng *rand.Rand) Update {
	j := rng.Intn(len(d.P.Services))
	cores := Sizes().SampleCores(rng)
	return Update{J: j, Cores: cores, Need: float64(cores) * d.CPUScale}
}

// Needs returns the elementary and aggregate need vectors of u.
func (u Update) Needs() (elem, agg vec.Vec) {
	return vec.Of(u.Need/float64(u.Cores), 0), vec.Of(u.Need, 0)
}

// Apply installs u in the domain's problem (fresh vectors, so earlier
// views that share the old ones are untouched).
func (d *Domain) Apply(u Update) {
	elem, agg := u.Needs()
	d.P.Services[u.J].NeedElem, d.P.Services[u.J].NeedAgg = elem, agg
}

// Threshold returns a copy of p with the mitigation threshold th applied to
// every CPU need below it, so the family also covers thresholded views.
func Threshold(p *core.Problem, th float64) *core.Problem {
	q := p.Clone()
	for j := range q.Services {
		s := &q.Services[j]
		if s.NeedAgg[workload.CPU] < th {
			s.NeedElem[workload.CPU] = math.Min(th, s.NeedElem[workload.CPU]*th/s.NeedAgg[workload.CPU])
			s.NeedAgg[workload.CPU] = th
		}
	}
	return q
}
