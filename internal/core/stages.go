package core

import (
	"time"

	"tanglefind/internal/telemetry"
)

// Stage names used in Result.Stages. Flat runs report the first four;
// multilevel runs add StageCoarseDetect/StageProject and incremental
// runs add StageReplay/StageReseed.
const (
	StageGrow         = "grow"
	StageScore        = "score"
	StageRecombine    = "recombine"
	StagePrune        = "prune"
	StageCoarseDetect = "coarse_detect"
	StageProject      = "project"
	StageReplay       = "replay"
	StageReseed       = "reseed"
)

// The per-seed pipeline phases accumulated on each worker's grower.
// Kept as a fixed array of plain int64 nanoseconds so the hot path
// pays one clock read per phase and no map or atomic traffic; the
// totals are harvested once per worker when the pool drains.
const (
	phaseGrow = iota
	phaseScore
	phaseRecombine
	nPhases
)

var phaseNames = [nPhases]string{StageGrow, StageScore, StageRecombine}

// phaseAcc is a per-phase nanosecond accumulator.
type phaseAcc [nPhases]int64

// stages converts the accumulator to the exported map form, skipping
// phases that never ran.
func (p *phaseAcc) stages() telemetry.StageTimings {
	t := telemetry.StageTimings{}
	for i, ns := range p {
		if ns > 0 {
			t[phaseNames[i]] = time.Duration(ns)
		}
	}
	return t
}

// clock reads the time for every per-seed measurement: the phase
// stamps, the seed pool's per-worker busy clocks and the incremental
// replay/reseed split. Per-run stamps read time.Now directly. The
// overhead guard swaps in a counting clock to bound what these reads
// cost.
var clock = time.Now

// stamp folds the time elapsed since `from` into phase p and returns
// the new timestamp, chaining consecutive phase boundaries through
// one clock read each.
func (g *grower) stamp(p int, from time.Time) time.Time {
	now := clock()
	g.phases[p] += int64(now.Sub(from))
	return now
}
