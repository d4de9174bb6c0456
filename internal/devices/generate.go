package devices

import (
	"fmt"
	"math"
	"sort"

	"telcolens/internal/randx"
	"telcolens/internal/topology"
)

// TypeShares are the §4.2 device-type population shares.
var TypeShares = map[DeviceType]float64{
	Smartphone:   0.591,
	M2MIoT:       0.398,
	FeaturePhone: 0.011,
}

// manufacturerEntry defines one manufacturer's share within a device type
// plus its behavioural quirk.
type manufacturerEntry struct {
	name   string
	share  float64 // percent within the device type
	models int     // catalog entries to generate
	quirk  Quirk
}

// Manufacturer mixes per device type, from Fig 4a. The named "Other"
// remainder is split across plausible niche manufacturers, including the
// high-HOF / high-signaling outliers of Fig 11 (KVD, HMD, Simcom, Gotron,
// Tecno).
var manufacturerMix = map[DeviceType][]manufacturerEntry{
	Smartphone: {
		{"Apple", 54.8, 40, Quirk{HOMult: 1.04, HOFMult: 1.08}},
		{"Samsung", 30.2, 45, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"Motorola", 3.0, 12, Quirk{HOMult: 0.97, HOFMult: 1.05}},
		{"Google", 2.0, 8, Quirk{HOMult: 1.00, HOFMult: 0.73}},
		{"Huawei", 1.9, 14, Quirk{HOMult: 1.02, HOFMult: 1.00}},
		{"Xiaomi", 3.4, 14, Quirk{HOMult: 1.01, HOFMult: 1.10}},
		{"Oppo", 1.6, 8, Quirk{HOMult: 0.99, HOFMult: 1.15}},
		{"KVD", 0.9, 4, Quirk{HOMult: 1.30, HOFMult: 7.00}},
		{"Tecno", 1.1, 5, Quirk{HOMult: 1.15, HOFMult: 3.20}},
		{"Gotron", 1.1, 4, Quirk{HOMult: 1.20, HOFMult: 4.20}},
	},
	M2MIoT: {
		{"Wistron", 23.2, 10, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"Toshiba", 18.1, 9, Quirk{HOMult: 0.95, HOFMult: 1.05}},
		{"Gemalto", 15.4, 9, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"Telit", 9.4, 8, Quirk{HOMult: 1.05, HOFMult: 1.10}},
		{"Peiker", 6.3, 6, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"Simcom", 7.9, 6, Quirk{HOMult: 3.93, HOFMult: 1.60}},
		{"Quectel", 7.2, 6, Quirk{HOMult: 1.10, HOFMult: 1.20}},
		{"Sierra", 6.5, 5, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"Cinterion", 6.0, 5, Quirk{HOMult: 1.00, HOFMult: 1.00}},
	},
	FeaturePhone: {
		{"HMD", 16.7, 6, Quirk{HOMult: 1.10, HOFMult: 7.00}},
		{"Doro", 12.5, 5, Quirk{HOMult: 1.00, HOFMult: 1.80}},
		{"Samsung", 11.0, 5, Quirk{HOMult: 1.00, HOFMult: 1.00}},
		{"TCL", 9.6, 4, Quirk{HOMult: 1.00, HOFMult: 1.20}},
		{"Verve", 7.6, 4, Quirk{HOMult: 1.00, HOFMult: 1.50}},
		{"Alcatel", 15.0, 5, Quirk{HOMult: 1.00, HOFMult: 1.30}},
		{"Emporia", 14.0, 5, Quirk{HOMult: 1.00, HOFMult: 1.40}},
		{"Energizer", 13.6, 5, Quirk{HOMult: 1.00, HOFMult: 1.25}},
	},
}

// ratSupportMix gives, per device type, the probability that a model's
// maximum supported RAT is 2G/3G/4G/5G. Calibrated to Fig 4b: 12.6% of all
// UEs support only 2G, 20.1% up to 3G, ≈80% of M2M/IoT tops out at 3G, and
// 48.5% of smartphones are 5G-capable.
var ratSupportMix = map[DeviceType][4]float64{
	Smartphone:   {0.002, 0.028, 0.485, 0.485},
	M2MIoT:       {0.309, 0.480, 0.195, 0.016},
	FeaturePhone: {0.287, 0.234, 0.479, 0.000},
}

// categoryOf maps (type, manufacturer) to the GSMA marketing category. A
// small error rate models catalog noise.
func categoryOf(r *randx.Rand, t DeviceType) string {
	noise := r.Float64()
	switch t {
	case Smartphone:
		if noise < 0.01 {
			return "Handheld"
		}
		return "Smartphone"
	case M2MIoT:
		if noise < 0.02 {
			// Mislabeled entries: the APN keyword usually rescues these.
			return "Handheld"
		}
		cats := []string{"Module", "Router", "Modem", "Tracker", "Meter", "Wearable"}
		return cats[r.Intn(len(cats))]
	default:
		if noise < 0.03 {
			return "Handheld"
		}
		if r.Bool(0.5) {
			return "Basic Phone"
		}
		return "Feature Phone"
	}
}

// GenerateCatalog builds a deterministic synthetic TAC catalog with the
// calibrated manufacturer, type and RAT-support mixes.
func GenerateCatalog(seed uint64) (*Catalog, error) {
	r := randx.NewStream(seed, "devices", 0)
	c := &Catalog{}
	nextTAC := TAC(35_000_000)
	for _, t := range AllDeviceTypes() {
		mix := manufacturerMix[t]
		var shareSum float64
		for _, e := range mix {
			shareSum += e.share
		}
		if shareSum < 99.9 || shareSum > 100.1 {
			return nil, fmt.Errorf("devices: %s manufacturer shares sum to %.2f", t, shareSum)
		}
		ratMix := ratSupportMix[t]
		for _, e := range mix {
			// Per-model popularity: a heavy-tailed split of the
			// manufacturer share across its models.
			weights := make([]float64, e.models)
			var wsum float64
			for i := range weights {
				weights[i] = r.Pareto(1, 1.3)
				wsum += weights[i]
			}
			for i := 0; i < e.models; i++ {
				c.Models = append(c.Models, Model{
					TAC:          nextTAC,
					Manufacturer: e.name,
					Type:         t,
					Category:     categoryOf(r, t),
					Quirk:        e.quirk,
					Weight:       TypeShares[t] * e.share / 100 * weights[i] / wsum,
				})
				nextTAC++
			}
		}
		assignMaxRATs(c, t, ratMix)
	}
	if err := c.buildIndex(); err != nil {
		return nil, err
	}
	return c, nil
}

// assignMaxRATs distributes maximum supported RATs over a device type's
// models so that the *population-weighted* RAT-support shares match the
// calibration targets despite heavy-tailed model popularity: models are
// processed in descending weight order and each one is assigned the RAT
// with the largest remaining share deficit.
func assignMaxRATs(c *Catalog, t DeviceType, mix [4]float64) {
	var idx []int
	var totalW float64
	for i := range c.Models {
		if c.Models[i].Type == t {
			idx = append(idx, i)
			totalW += c.Models[i].Weight
		}
	}
	sort.Slice(idx, func(a, b int) bool { return c.Models[idx[a]].Weight > c.Models[idx[b]].Weight })
	var assigned [4]float64
	for _, i := range idx {
		best, bestDeficit := 0, math.Inf(-1)
		for rat := 0; rat < 4; rat++ {
			deficit := mix[rat]*totalW - assigned[rat]
			if deficit > bestDeficit {
				best, bestDeficit = rat, deficit
			}
		}
		c.Models[i].MaxRAT = topology.RAT(best)
		assigned[best] += c.Models[i].Weight
	}
}

// Sampler draws device models with probability proportional to their
// population weight.
type Sampler struct {
	catalog *Catalog
	all     *randx.WeightedChoice
}

// NewSampler prepares a weighted sampler over the catalog.
func NewSampler(c *Catalog) (*Sampler, error) {
	if c.Len() == 0 {
		return nil, fmt.Errorf("devices: empty catalog")
	}
	weights := make([]float64, c.Len())
	for i, m := range c.Models {
		weights[i] = m.Weight
	}
	all, err := randx.NewWeightedChoice(weights)
	if err != nil {
		return nil, err
	}
	return &Sampler{catalog: c, all: all}, nil
}

// Sample draws a model according to population weights.
func (s *Sampler) Sample(r *randx.Rand) *Model {
	return &s.catalog.Models[s.all.Sample(r)]
}

// SampleAPN draws an APN string consistent with a device's true type: IoT
// verticals configure keyword-bearing APNs on most of their fleet, while
// phones use generic consumer APNs.
func SampleAPN(r *randx.Rand, t DeviceType) string {
	if t == M2MIoT && r.Bool(0.9) {
		apns := []string{
			"m2m.operator.example", "smart-meter.grid.example", "telemetry.fleet.example",
			"iot.vertical.example", "fleet.m2m.example", "scada.utility.example",
		}
		return apns[r.Intn(len(apns))]
	}
	apns := []string{"internet.operator.example", "wap.operator.example", "lte.operator.example"}
	return apns[r.Intn(len(apns))]
}
