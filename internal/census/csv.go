package census

import (
	"encoding/csv"
	"io"
	"strconv"
)

// The census office publishes open data as flat tables; we mirror that with
// a postcode-level CSV that telcogen writes beside each campaign. One row
// per postcode carries the district and postcode attributes of the
// Country frame.

var csvHeader = []string{
	"postcode", "district_id", "district_name", "region",
	"district_area_km2", "district_lat", "district_lon",
	"capital", "capital_center",
	"pc_population", "pc_area_km2", "pc_lat", "pc_lon",
}

// WriteCSV streams the country as postcode-level open data.
func WriteCSV(w io.Writer, c *Country) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, d := range c.Districts {
		for _, p := range d.Postcodes {
			rec := []string{
				p.Code,
				strconv.Itoa(d.ID),
				d.Name,
				strconv.Itoa(int(d.Region)),
				formatFloat(d.AreaKm2),
				formatFloat(d.Center.Lat),
				formatFloat(d.Center.Lon),
				strconv.FormatBool(d.Capital),
				strconv.FormatBool(d.CapitalCenter),
				strconv.Itoa(p.Population),
				formatFloat(p.AreaKm2),
				formatFloat(p.Center.Lat),
				formatFloat(p.Center.Lon),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
