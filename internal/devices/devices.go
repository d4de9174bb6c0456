// Package devices models the GSMA device catalog the paper joins against
// (§3.1): TAC-indexed device models with manufacturer, device type
// (smartphone, M2M/IoT or low-tier feature phone) and maximum supported
// RAT.
package devices

import (
	"fmt"

	"telcolens/internal/topology"
)

// DeviceType is the paper's three-way device classification.
type DeviceType uint8

// Device types with their §4.2 population shares: smartphones 59.1%,
// M2M/IoT 39.8%, low-tier feature phones 1.1%.
const (
	Smartphone DeviceType = iota
	M2MIoT
	FeaturePhone
)

// AllDeviceTypes lists the device types in canonical order.
func AllDeviceTypes() []DeviceType { return []DeviceType{Smartphone, M2MIoT, FeaturePhone} }

// String returns the device type name.
func (d DeviceType) String() string {
	switch d {
	case Smartphone:
		return "Smartphone"
	case M2MIoT:
		return "M2M/IoT"
	case FeaturePhone:
		return "Feature Phone"
	default:
		return fmt.Sprintf("DeviceType(%d)", uint8(d))
	}
}

// TAC is the 8-digit Type Allocation Code prefix of an IMEI identifying a
// device model.
type TAC uint32

// Quirk captures manufacturer-specific mobility-management behaviour. The
// paper observes (Fig 11) that most manufacturers behave like their peers
// (ratios ≈1), Google devices see fewer failures (-27%), and some niche
// manufacturers show up to +600% HOF rates (KVD, HMD) or +293% HO
// signaling (Simcom).
type Quirk struct {
	HOMult  float64 // multiplier on handovers generated per UE
	HOFMult float64 // multiplier on handover failure probability
}

// Model is one catalog entry (a device model identified by TAC).
type Model struct {
	TAC          TAC
	Manufacturer string
	Type         DeviceType
	MaxRAT       topology.RAT
	Category     string // the GSMA marketing category
	Quirk        Quirk
	Weight       float64 // relative population share of this model
}

// SupportsRAT reports whether the model can attach to the given RAT.
func (m *Model) SupportsRAT(r topology.RAT) bool { return r <= m.MaxRAT }

// Catalog is the full TAC database.
type Catalog struct {
	Models []Model
	byTAC  map[TAC]int
}

// ByTAC resolves a TAC to its model, or nil.
func (c *Catalog) ByTAC(t TAC) *Model {
	idx, ok := c.byTAC[t]
	if !ok {
		return nil
	}
	return &c.Models[idx]
}

// Len returns the number of catalog entries.
func (c *Catalog) Len() int { return len(c.Models) }

// buildIndex fills the TAC lookup map.
func (c *Catalog) buildIndex() error {
	c.byTAC = make(map[TAC]int, len(c.Models))
	for i, m := range c.Models {
		if _, dup := c.byTAC[m.TAC]; dup {
			return fmt.Errorf("devices: duplicate TAC %d", m.TAC)
		}
		c.byTAC[m.TAC] = i
	}
	return nil
}
