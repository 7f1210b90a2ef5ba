package market

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"spothost/internal/sim"
)

// CSV format, one row per price step:
//
//	seconds,region,instance_type,price
//
// plus a header row. This mirrors flattened AWS spot price history dumps
// (with timestamps rebased to seconds from the window start) so real
// traces can be replayed through the same pipeline as synthetic ones.

// WriteCSV serializes every trace in the set, followed by one
// "#ondemand" comment row per market carrying the on-demand catalog and a
// "#end" row with the horizon, so ReadCSV can reconstruct the Set exactly.
func WriteCSV(w io.Writer, s *Set) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seconds", "region", "instance_type", "price"}); err != nil {
		return err
	}
	for _, id := range s.IDs() {
		tr := s.Trace(id)
		for _, p := range tr.Points() {
			rec := []string{
				strconv.FormatFloat(p.T, 'f', -1, 64),
				string(id.Region),
				string(id.Type),
				strconv.FormatFloat(p.Price, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	for _, id := range s.IDs() {
		rec := []string{"#ondemand", string(id.Region), string(id.Type),
			strconv.FormatFloat(s.OnDemand(id), 'g', -1, 64)}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if err := cw.Write([]string{"#end", "", "", strconv.FormatFloat(s.Horizon(), 'f', -1, 64)}); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a Set previously written by WriteCSV (or hand-assembled
// from real price history in the same format).
func ReadCSV(r io.Reader) (*Set, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("market: reading csv: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("market: empty csv")
	}
	pts := map[ID][]Point{}
	onDemand := map[ID]float64{}
	end := 0.0
	haveEnd := false
	for i, row := range rows {
		if i == 0 && row[0] == "seconds" {
			continue // header
		}
		switch row[0] {
		case "#ondemand":
			id := ID{Region: Region(row[1]), Type: InstanceType(row[2])}
			p, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return nil, fmt.Errorf("market: row %d: bad on-demand price %q", i+1, row[3])
			}
			onDemand[id] = p
		case "#end":
			e, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return nil, fmt.Errorf("market: row %d: bad end %q", i+1, row[3])
			}
			end, haveEnd = e, true
		default:
			t, err := strconv.ParseFloat(row[0], 64)
			if err != nil {
				return nil, fmt.Errorf("market: row %d: bad time %q", i+1, row[0])
			}
			p, err := strconv.ParseFloat(row[3], 64)
			if err != nil {
				return nil, fmt.Errorf("market: row %d: bad price %q", i+1, row[3])
			}
			id := ID{Region: Region(row[1]), Type: InstanceType(row[2])}
			pts[id] = append(pts[id], Point{T: t, Price: p})
		}
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("market: csv has no price rows")
	}
	var ids []ID
	for id := range pts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Region != ids[j].Region {
			return ids[i].Region < ids[j].Region
		}
		return ids[i].Type < ids[j].Type
	})
	var traces []*Trace
	for _, id := range ids {
		ps := pts[id]
		sort.Slice(ps, func(i, j int) bool { return ps[i].T < ps[j].T })
		e := end
		if !haveEnd {
			e = ps[len(ps)-1].T + sim.Hour
		}
		tr, err := NewTrace(id, ps, e)
		if err != nil {
			return nil, err
		}
		traces = append(traces, tr)
		if _, ok := onDemand[id]; !ok {
			// Real dumps may omit the catalog; approximate the on-demand
			// price as the default catalog entry, falling back to the 95th
			// percentile heuristic used in spot-market literature.
			if ts, ok := FindType(DefaultTypes(), id.Type); ok {
				onDemand[id] = ts.OnDemand
			} else {
				onDemand[id] = tr.Max()
			}
		}
	}
	return NewSet(traces, onDemand)
}
