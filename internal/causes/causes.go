// Package causes implements the handover-failure cause catalog of §6.2:
// the eight dominant 3GPP/vendor causes that explain 92% of all HOFs, a
// generated long tail of 1k+ vendor-specific sub-causes, per-HO-type cause
// mixes, per-cause signaling-duration models, and the area/device-type
// skews visible in the paper's Figure 15.
package causes

import (
	"fmt"
	"math"

	"telcolens/internal/census"
	"telcolens/internal/devices"
	"telcolens/internal/ho"
	"telcolens/internal/randx"
)

// Code identifies a failure cause. Codes 1–8 are the paper's main causes;
// codes ≥ longTailBase are generated vendor sub-causes.
type Code uint16

// CodeNone marks a successful handover (no failure cause).
const CodeNone Code = 0

// longTailBase is the first long-tail sub-cause code.
const longTailBase Code = 100

// Cause is one catalog entry with its 3GPP/vendor description and
// signaling-duration model.
type Cause struct {
	Code        Code
	Title       string
	Description string
	Source      string // "3GPP TS ..." or "vendor:Vn"

	// Signaling-time model for handovers failing with this cause
	// (log-normal by median/p95; Zero means the HO never initiates, as
	// with causes #3 and #6).
	DurationMedianMs float64
	DurationP95Ms    float64
	Zero             bool
}

// The eight dominant causes, with descriptions quoted from §6.2.
var mainCauses = []Cause{
	{
		Code:             1,
		Title:            "HO canceled by source",
		Description:      "The source sector canceled the HO",
		Source:           "3GPP TS 36.413 / TS 29.274",
		DurationMedianMs: 1500, DurationP95Ms: 5200,
	},
	{
		Code:             2,
		Title:            "Aborted by S1AP Initial UE Message",
		Description:      "The signaling procedure was aborted due to interfering S1AP Initial UE Message",
		Source:           "3GPP TS 36.413",
		DurationMedianMs: 1900, DurationP95Ms: 6100,
	},
	{
		Code:        3,
		Title:       "Invalid target sector ID",
		Description: "Signaling procedure was rejected due to invalid target sector ID",
		Source:      "3GPP TS 36.413",
		Zero:        true,
	},
	{
		Code:             4,
		Title:            "Target sector overloaded",
		Description:      "Load on target sector is too high",
		Source:           "3GPP TS 36.413",
		DurationMedianMs: 81, DurationP95Ms: 97,
	},
	{
		Code:             5,
		Title:            "Failure detected in target infrastructure",
		Description:      "MME detects a HO-related failure in the target MME, SGW, PGW, cell, or system",
		Source:           "3GPP TS 36.413 / TS 23.401",
		DurationMedianMs: 320, DurationP95Ms: 1600,
	},
	{
		Code:        6,
		Title:       "SRVCC not subscribed",
		Description: "The Single Radio Voice Call Continuity (SRVCC) service is not subscribed by the UE",
		Source:      "3GPP TS 23.216",
		Zero:        true,
	},
	{
		Code:             7,
		Title:            "SRVCC PS-to-CS preparation failure",
		Description:      "The MSC responds with PS to CS Response with cause indicating failure",
		Source:           "3GPP TS 23.216",
		DurationMedianMs: 520, DurationP95Ms: 2100,
	},
	{
		Code:             8,
		Title:            "Relocation completion timeout",
		Description:      "No Forward Relocation Complete or Notification was received before the max time for waiting for the relocation completion expires",
		Source:           "3GPP TS 29.274",
		DurationMedianMs: 10000, DurationP95Ms: 10200,
	},
}

// Catalog is the full cause database plus sampling machinery.
type Catalog struct {
	byCode map[Code]*Cause
	all    []Cause

	longTail       []Code
	longTailChoice *randx.WeightedChoice

	// mix[hoType][area][deviceType] samples a cause index into mixCodes.
	mix      [ho.NumTypes][2][3]*randx.WeightedChoice
	mixCodes []Code // 1..8 plus the long-tail marker
}

// NewCatalog builds the cause catalog with nLongTail generated vendor
// sub-causes (the paper collects 1k+ distinct causes).
func NewCatalog(seed uint64, nLongTail int) (*Catalog, error) {
	if nLongTail < 0 {
		return nil, fmt.Errorf("causes: negative long tail size")
	}
	c := &Catalog{byCode: make(map[Code]*Cause)}
	c.all = append(c.all, mainCauses...)

	r := randx.NewStream(seed, "causes", 0)
	families := []string{
		"RANAP relocation failure", "GTP-C malformed IE", "RRC reestablishment clash",
		"X2 path switch rejected", "Target cell barred", "Admission control denial",
		"Transport bearer setup failure", "Security mode mismatch", "Timer expiry",
		"Context transfer error",
	}
	vendorShort := []string{"V1", "V2", "V3", "V4"}
	weights := make([]float64, nLongTail)
	for i := 0; i < nLongTail; i++ {
		code := longTailBase + Code(i)
		fam := families[i%len(families)]
		vendor := vendorShort[r.Intn(len(vendorShort))]
		med := r.LogNormal(math.Log(400), 0.9)
		cause := Cause{
			Code:             code,
			Title:            fmt.Sprintf("%s (subcode %d)", fam, i),
			Description:      fmt.Sprintf("Vendor-specific sub-cause %d: %s reported by %s equipment", i, fam, vendor),
			Source:           "vendor:" + vendor,
			DurationMedianMs: med,
			DurationP95Ms:    med * (2 + 4*r.Float64()),
		}
		c.all = append(c.all, cause)
		c.longTail = append(c.longTail, code)
		// Zipf-like popularity within the tail.
		weights[i] = 1 / math.Pow(float64(i+1), 1.1)
	}
	if nLongTail > 0 {
		wc, err := randx.NewWeightedChoice(weights)
		if err != nil {
			return nil, err
		}
		c.longTailChoice = wc
	}

	for i := range c.all {
		cause := &c.all[i]
		if _, dup := c.byCode[cause.Code]; dup {
			return nil, fmt.Errorf("causes: duplicate code %d", cause.Code)
		}
		c.byCode[cause.Code] = cause
	}
	if err := c.buildMixes(); err != nil {
		return nil, err
	}
	return c, nil
}

// ByCode resolves a cause code, or nil.
func (c *Catalog) ByCode(code Code) *Cause {
	return c.byCode[code]
}

// Len returns the total number of catalog entries.
func (c *Catalog) Len() int { return len(c.all) }

// IsMain reports whether the code is one of the eight dominant causes.
func IsMain(code Code) bool { return code >= 1 && code <= 8 }

// baseMix gives the within-HO-type share of each main cause plus the long
// tail ("other"), solved from the §6.2 marginals — see DESIGN.md §5 for
// the derivation. Indexed by cause 1..8; index 0 holds "other".
var baseMix = map[ho.Type][9]float64{
	// other, #1, #2, #3, #4, #5, #6, #7, #8
	ho.Intra: {8.4, 0.8, 2.0, 17.2, 70.0, 1.3, 0, 0, 0.3},
	ho.To3G:  {7.6, 11.0, 3.4, 0.2, 25.0, 22.5, 15.2, 5.6, 9.5},
	ho.To2G:  {20.0, 35.0, 0, 0, 0, 35.0, 0, 0, 10.0},
}

// areaSkew multiplies cause weights by area type (Fig 15b): cause #1 is
// ~50% more prevalent in rural areas, #4 dominates dense urban sectors,
// SRVCC-related #6/#7 concentrate in rural voice fallback.
var areaSkew = [9][2]float64{ // [cause][Rural, Urban]
	{1.0, 1.0},  // other
	{1.5, 1.0},  // #1
	{1.0, 1.0},  // #2
	{1.0, 1.0},  // #3
	{0.55, 1.4}, // #4
	{1.3, 0.9},  // #5
	{2.0, 0.6},  // #6
	{2.0, 1.0},  // #7
	{1.2, 0.9},  // #8
}

// deviceSkew multiplies cause weights by device type (Fig 15a): #3 hits
// M2M/IoT hardest (59% of their failures), #6 hits feature phones (42%),
// #8 is ×3 in M2M devices.
var deviceSkew = [9][3]float64{ // [cause][Smartphone, M2M, Feature]
	{1.0, 0.7, 0.8},   // other
	{1.0, 1.0, 1.0},   // #1 affects all types evenly
	{1.0, 0.8, 1.0},   // #2
	{0.55, 4.2, 0.5},  // #3
	{1.25, 0.25, 0.5}, // #4
	{1.0, 0.8, 0.9},   // #5
	{0.55, 0.05, 4.5}, // #6
	{1.1, 0.05, 1.3},  // #7
	{0.8, 3.0, 1.0},   // #8
}

func (c *Catalog) buildMixes() error {
	c.mixCodes = []Code{CodeNone /*placeholder meaning long tail*/, 1, 2, 3, 4, 5, 6, 7, 8}
	for _, t := range ho.AllTypes() {
		base := baseMix[t]
		for area := 0; area < 2; area++ {
			for dev := 0; dev < 3; dev++ {
				w := make([]float64, 9)
				for i := 0; i < 9; i++ {
					w[i] = base[i] * areaSkew[i][area] * deviceSkew[i][dev]
				}
				wc, err := randx.NewWeightedChoice(w)
				if err != nil {
					return fmt.Errorf("causes: mix %s/%d/%d: %w", t, area, dev, err)
				}
				c.mix[t][area][dev] = wc
			}
		}
	}
	return nil
}

// Sample draws a failure cause for a failed handover of the given type in
// the given area for the given device type.
func (c *Catalog) Sample(r *randx.Rand, t ho.Type, area census.AreaType, dev devices.DeviceType) Code {
	wc := c.mix[t][areaIndex(area)][int(dev)]
	i := wc.Sample(r)
	code := c.mixCodes[i]
	if code == CodeNone { // long tail
		if c.longTailChoice == nil {
			return 5 // no tail configured: fold into infrastructure failures
		}
		return c.longTail[c.longTailChoice.Sample(r)]
	}
	return code
}

// SampleDuration draws the signaling time (milliseconds) of a handover
// failing with the given cause.
func (c *Catalog) SampleDuration(r *randx.Rand, code Code) float64 {
	cause := c.byCode[code]
	if cause == nil || cause.Zero {
		return 0
	}
	return r.LogNormalMedP95(cause.DurationMedianMs, cause.DurationP95Ms)
}

func areaIndex(a census.AreaType) int {
	if a == census.Urban {
		return 1
	}
	return 0
}
