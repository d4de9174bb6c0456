package main

import (
	"reflect"
	"testing"
)

func testCampaign() *campaign {
	c := &campaign{}
	for i := uint32(0); i < 500; i++ {
		c.ues = append(c.ues, 1000+i*7)
	}
	for i := uint32(0); i < topTACs; i++ {
		c.tacs = append(c.tacs, 35000000+i)
	}
	for i := uint32(0); i < topSectors; i++ {
		c.sectors = append(c.sectors, 10+i)
	}
	return c
}

func TestSameSeedSameRequests(t *testing.T) {
	c := testCampaign()
	ids := []string{"table1", "fig8", "fig12"}
	a := newReadMix(c, ids, 14, 42).take(5000)
	b := newReadMix(c, ids, 14, 42).take(5000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different request sequences")
	}
	other := newReadMix(c, ids, 14, 43).take(5000)
	if reflect.DeepEqual(a, other) {
		t.Fatal("different seeds produced the same request sequence")
	}
	for i := range a {
		if a[i].path(false) != b[i].path(false) {
			t.Fatalf("request %d renders differently: %s vs %s", i, a[i].path(false), b[i].path(false))
		}
	}
}

func TestMixSharesAndKeySkew(t *testing.T) {
	c := testCampaign()
	reqs := newReadMix(c, []string{"table1", "fig8"}, 14, 7).take(20000)
	var byClass [numClasses]int
	distinctUEs := map[uint32]int{}
	for _, r := range reqs {
		byClass[r.class]++
		if r.class == classPoint {
			distinctUEs[r.key]++
		}
		if r.class == classSlice && r.day+sliceDays > 14 {
			t.Fatalf("slice window starts at day %d, past the campaign", r.day)
		}
	}
	for class, want := range map[reqClass]int{classPoint: sharePoint, classTAC: shareTAC, classSlice: shareSlice, classArtifact: shareArtifact} {
		got := 100 * float64(byClass[class]) / float64(len(reqs))
		if got < float64(want)-2 || got > float64(want)+2 {
			t.Errorf("%s share = %.1f%%, want about %d%%", classNames[class], got, want)
		}
	}
	// Zipf keys: far more distinct keys than the 128-entry result cache
	// holds (so misses occur), yet a hot head (so hits occur).
	if len(distinctUEs) <= 128 {
		t.Errorf("only %d distinct UEs requested; the result cache would hold them all", len(distinctUEs))
	}
	hottest := 0
	for _, n := range distinctUEs {
		hottest = max(hottest, n)
	}
	if share := float64(hottest) / float64(byClass[classPoint]); share < 0.05 {
		t.Errorf("hottest UE takes %.1f%% of point queries; expected a Zipf head", 100*share)
	}
}
