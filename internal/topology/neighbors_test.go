package topology

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"telcolens/internal/census"
	"telcolens/internal/geo"
)

// eagerNeighbors is the neighbour graph as Generate used to build it,
// eagerly, before any caller asked: the oracle for the lazy build.
func eagerNeighbors(n *Network, neighborK int) [][]SiteID {
	out := make([][]SiteID, len(n.Sites))
	type distSite struct {
		d  float64
		id SiteID
	}
	for _, siteIDs := range n.sitesByDistrict {
		for _, id := range siteIDs {
			me := &n.Sites[id]
			cands := make([]distSite, 0, len(siteIDs)-1)
			for _, other := range siteIDs {
				if other == id {
					continue
				}
				cands = append(cands, distSite{geo.DistanceKm(me.Loc, n.Sites[other].Loc), other})
			}
			sort.Slice(cands, func(a, b int) bool { return cands[a].d < cands[b].d })
			k := neighborK
			if k > len(cands) {
				k = len(cands)
			}
			nb := make([]SiteID, k)
			for i := 0; i < k; i++ {
				nb[i] = cands[i].id
			}
			out[id] = nb
		}
	}
	return out
}

func seededNetwork(t *testing.T, seed uint64) *Network {
	t.Helper()
	country, err := census.Generate(census.DefaultGenConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	net, err := Generate(DefaultGenConfig(seed), country)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestLazyNeighborsMatchEagerBuild(t *testing.T) {
	for _, seed := range []uint64{7, 11, 42} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			net := seededNetwork(t, seed)
			if net.neighborSites != nil {
				t.Fatal("Generate built the neighbour graph; it must wait for first use")
			}
			want := eagerNeighbors(net, neighborK)
			for id := range net.Sites {
				if got := net.NeighborSites(SiteID(id)); !slices.Equal(got, want[id]) {
					t.Fatalf("site %d: neighbours %v, want %v", id, got, want[id])
				}
			}
		})
	}
}

// The generator's workers call NeighborSites concurrently; whichever
// comes first builds the graph and the rest must see it complete. Run
// under -race.
func TestNeighborSitesConcurrentFirstUse(t *testing.T) {
	net := seededNetwork(t, 7)
	want := eagerNeighbors(net, neighborK)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := w; id < len(net.Sites); id += workers {
				if got := net.NeighborSites(SiteID(id)); !slices.Equal(got, want[id]) {
					errs[w] = fmt.Errorf("site %d: neighbours %v, want %v", id, got, want[id])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
