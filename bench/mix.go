package main

import (
	"fmt"
	"math/rand"

	"telcolens/internal/query"
	"telcolens/internal/trace"
)

type reqClass int

const (
	classPoint reqClass = iota
	classTAC
	classSlice
	classArtifact
	numClasses
)

var classNames = [numClasses]string{"point", "tac", "slice", "artifact"}

// request is one read of the mix, in a form both the HTTP generator
// (path) and the in-process traced replay (params) can issue.
type request struct {
	class    reqClass
	key      uint32 // UE, TAC or sector
	day      int
	artifact string
	asJSON   bool
}

// path renders the request as telcoserve sees it. noIndex adds
// noindex=1, the scan-fallback form the correctness recheck compares to.
func (r request) path(noIndex bool) string {
	var p string
	switch r.class {
	case classPoint:
		p = fmt.Sprintf("/query?ue=%d&agg=1", r.key)
	case classTAC:
		p = fmt.Sprintf("/query?tac=%d&day=%d&limit=500", r.key, r.day)
	case classSlice:
		p = fmt.Sprintf("/query?sector=%d&from=day:%d&to=day:%d&format=csv", r.key, r.day, r.day+sliceDays)
	case classArtifact:
		if r.asJSON {
			return "/artifacts/" + r.artifact + "?format=json"
		}
		return "/artifacts/" + r.artifact
	}
	if noIndex {
		p += "&noindex=1"
	}
	return p
}

// params is the same query for query.Engine (not defined for artifacts).
func (r request) params() query.Params {
	switch r.class {
	case classPoint:
		ue := trace.UEID(r.key)
		return query.Params{UE: &ue, Aggregate: true}
	case classTAC:
		tr := trace.DayRange(r.day, r.day)
		return query.Params{TAC: &r.key, From: tr.MinTS, To: tr.MaxTS, Limit: 500}
	default:
		return query.Params{Sector: &r.key,
			From: trace.DayStart(r.day).UnixMilli(), To: trace.DayStart(r.day + sliceDays).UnixMilli()}
	}
}

// readMix draws the request sequence. Every random choice comes from the
// one seeded source in a fixed order, so a seed fixes the sequence.
type readMix struct {
	rng       *rand.Rand
	ues       []uint32 // seeded permutation of C's UEs: Zipf rank -> UE
	ueZipf    *rand.Zipf
	tacs      []uint32
	tacZipf   *rand.Zipf
	sectors   []uint32
	days      int // tac/slice windows start in [0, days)
	artifacts []string
	nArtifact int
}

// newReadMix prepares the mix over c's keys; days bounds the study days
// that time-windowed requests name (the days visible when reads start).
func newReadMix(c *campaign, artifacts []string, days int, seed uint64) *readMix {
	rng := rand.New(rand.NewSource(int64(seed)))
	m := &readMix{rng: rng, tacs: c.tacs, sectors: c.sectors, days: days, artifacts: artifacts}
	m.ues = make([]uint32, len(c.ues))
	for i, p := range rng.Perm(len(c.ues)) {
		m.ues[i] = c.ues[p]
	}
	m.ueZipf = rand.NewZipf(rng, zipfS, 1, uint64(len(m.ues)-1))
	m.tacZipf = rand.NewZipf(rng, zipfS, 1, uint64(len(m.tacs)-1))
	return m
}

func (m *readMix) next() request {
	switch roll := m.rng.Intn(100); {
	case roll < sharePoint:
		return request{class: classPoint, key: m.ues[m.ueZipf.Uint64()]}
	case roll < sharePoint+shareTAC:
		return request{class: classTAC, key: m.tacs[m.tacZipf.Uint64()], day: m.rng.Intn(m.days)}
	case roll < sharePoint+shareTAC+shareSlice:
		return request{class: classSlice, key: m.sectors[m.rng.Intn(len(m.sectors))],
			day: m.rng.Intn(max(m.days-sliceDays, 0) + 1)}
	default:
		m.nArtifact++
		return request{class: classArtifact, artifact: m.artifacts[m.rng.Intn(len(m.artifacts))],
			asJSON: m.nArtifact%2 == 0}
	}
}

// take draws the next n requests.
func (m *readMix) take(n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = m.next()
	}
	return out
}
