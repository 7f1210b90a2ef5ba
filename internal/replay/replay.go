// Package replay imports real Amazon spot price history — the data the
// paper seeded its simulations with — and converts it into market.Set
// traces the scheduler can run against directly.
//
// Two source formats are supported:
//
//   - the AWS CLI's `aws ec2 describe-spot-price-history` JSON output
//     ({"SpotPriceHistory": [...]}, or a bare array of records), and
//   - the legacy ec2-api-tools text dump (tab-separated
//     SPOTINSTANCEPRICE rows).
//
// Timestamps are rebased so the earliest record is simulation time 0, AWS
// instance-type names map onto the catalog's size names, and the
// on-demand price book is filled from the default catalog.
package replay

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"spothost/internal/market"
	"spothost/internal/sim"
)

// Record is one spot price observation.
type Record struct {
	Time    time.Time
	Zone    string // availability zone, e.g. "us-east-1a"
	Type    string // AWS instance type, e.g. "m3.medium"
	Product string // e.g. "Linux/UNIX"
	Price   float64
}

// typeMap renames the 2015-era AWS instance families the paper used to
// the catalog's four sizes (e.g. "m1.small" -> "small"); unmapped types
// keep their AWS name.
var typeMap = map[string]market.InstanceType{
	"m1.small":   "small",
	"t1.micro":   "small",
	"m3.medium":  "medium",
	"m1.medium":  "medium",
	"m3.large":   "large",
	"m1.large":   "large",
	"m3.xlarge":  "xlarge",
	"m1.xlarge":  "xlarge",
	"m3.2xlarge": "xlarge",
}

// awsHistory matches the AWS CLI JSON envelope.
type awsHistory struct {
	SpotPriceHistory []awsRecord `json:"SpotPriceHistory"`
}

type awsRecord struct {
	AvailabilityZone   string `json:"AvailabilityZone"`
	InstanceType       string `json:"InstanceType"`
	ProductDescription string `json:"ProductDescription"`
	SpotPrice          string `json:"SpotPrice"`
	Timestamp          string `json:"Timestamp"`
}

// timeLayouts are the timestamp formats AWS tooling has emitted over the
// years.
var timeLayouts = []string{
	time.RFC3339Nano,
	time.RFC3339,
	"2006-01-02T15:04:05.000Z",
	"2006-01-02T15:04:05-0700",
	"2006-01-02 15:04:05",
}

func parseTime(s string) (time.Time, error) {
	for _, l := range timeLayouts {
		if t, err := time.Parse(l, s); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("replay: unrecognized timestamp %q", s)
}

// ParseJSON reads AWS CLI describe-spot-price-history output: either the
// {"SpotPriceHistory": [...]} envelope or a bare array of records.
func ParseJSON(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("replay: reading json: %w", err)
	}
	var env awsHistory
	if err := json.Unmarshal(data, &env); err != nil || len(env.SpotPriceHistory) == 0 {
		// Try a bare array.
		var arr []awsRecord
		if err2 := json.Unmarshal(data, &arr); err2 != nil {
			if err == nil {
				err = err2
			}
			return nil, fmt.Errorf("replay: not spot price history json: %w", err)
		}
		env.SpotPriceHistory = arr
	}
	var out []Record
	for i, ar := range env.SpotPriceHistory {
		ts, err := parseTime(ar.Timestamp)
		if err != nil {
			return nil, fmt.Errorf("replay: record %d: %w", i, err)
		}
		price, err := strconv.ParseFloat(ar.SpotPrice, 64)
		if err != nil {
			return nil, fmt.Errorf("replay: record %d: bad price %q", i, ar.SpotPrice)
		}
		out = append(out, Record{
			Time:    ts,
			Zone:    ar.AvailabilityZone,
			Type:    ar.InstanceType,
			Product: ar.ProductDescription,
			Price:   price,
		})
	}
	return out, nil
}

// ParseLegacy reads the ec2-api-tools text format: tab-separated rows of
//
//	SPOTINSTANCEPRICE <price> <timestamp> <type> <product> <zone>
//
// Unknown row tags and blank lines are skipped.
func ParseLegacy(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if fields[0] != "SPOTINSTANCEPRICE" {
			continue
		}
		if len(fields) < 6 {
			return nil, fmt.Errorf("replay: line %d: want 6 fields, got %d", line, len(fields))
		}
		price, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: bad price %q", line, fields[1])
		}
		ts, err := parseTime(fields[2])
		if err != nil {
			return nil, fmt.Errorf("replay: line %d: %w", line, err)
		}
		out = append(out, Record{
			Time:    ts,
			Zone:    fields[5],
			Type:    fields[3],
			Product: fields[4],
			Price:   price,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("replay: scanning: %w", err)
	}
	return out, nil
}

// Build converts records into a market.Set, keeping only those of the
// given product description (empty keeps all).
func Build(records []Record, product string) (*market.Set, error) {
	// Filter and map.
	var kept []Record
	for _, rec := range records {
		if product != "" && rec.Product != product {
			continue
		}
		if rec.Price <= 0 {
			continue // defensive: drop corrupt rows
		}
		kept = append(kept, rec)
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("replay: no records after filtering")
	}
	// Rebase to the earliest record.
	epoch := kept[0].Time
	for _, rec := range kept {
		if rec.Time.Before(epoch) {
			epoch = rec.Time
		}
	}
	// Group into per-market point lists.
	points := map[market.ID][]market.Point{}
	for _, rec := range kept {
		ty := market.InstanceType(rec.Type)
		if mapped, ok := typeMap[rec.Type]; ok {
			ty = mapped
		}
		id := market.ID{Region: market.Region(rec.Zone), Type: ty}
		points[id] = append(points[id], market.Point{
			T:     rec.Time.Sub(epoch).Seconds(),
			Price: rec.Price,
		})
	}
	var ids []market.ID
	for id := range points {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Region != ids[j].Region {
			return ids[i].Region < ids[j].Region
		}
		return ids[i].Type < ids[j].Type
	})

	// Every trace ends at one common horizon, an hour past the latest
	// observation in any market.
	var end sim.Time
	for _, id := range ids {
		ps := points[id]
		sort.Slice(ps, func(i, j int) bool { return ps[i].T < ps[j].T })
		// Collapse duplicate timestamps (AWS history can repeat): the
		// last observation wins.
		dedup := ps[:0]
		for i, p := range ps {
			if i > 0 && p.T == dedup[len(dedup)-1].T {
				dedup[len(dedup)-1] = p
				continue
			}
			dedup = append(dedup, p)
		}
		points[id] = dedup
		if last := dedup[len(dedup)-1].T + sim.Hour; last > end {
			end = last
		}
	}
	var traces []*market.Trace
	onDemand := map[market.ID]float64{}
	for _, id := range ids {
		tr, err := market.NewTrace(id, points[id], end)
		if err != nil {
			return nil, fmt.Errorf("replay: market %s: %w", id, err)
		}
		traces = append(traces, tr)
		onDemand[id] = resolveOnDemand(id, tr)
	}
	return market.NewSet(traces, onDemand)
}

// resolveOnDemand picks the on-demand price for one imported market: the
// default catalog's for known sizes, else the trace's maximum price.
func resolveOnDemand(id market.ID, tr *market.Trace) float64 {
	if ts, ok := market.FindType(market.DefaultTypes(), id.Type); ok {
		if rs, ok := market.FindRegion(market.DefaultRegions(), id.Region); ok {
			return market.OnDemandPrice(rs, ts)
		}
		return ts.OnDemand
	}
	// Unknown size: the literature's usual heuristic is that spot peaks
	// approach (or exceed) the on-demand price; use the observed maximum.
	return tr.Max()
}

// Load reads a price file in one of the trace formats: "csv"
// (market.WriteCSV, as tracegen writes it), "aws-json"
// (describe-spot-price-history) or "aws-legacy" (ec2-api-tools). The AWS
// formats are parsed and built for the given product (see Build).
func Load(format string, r io.Reader, product string) (*market.Set, error) {
	var recs []Record
	var err error
	switch format {
	case "csv":
		return market.ReadCSV(r)
	case "aws-json":
		recs, err = ParseJSON(r)
	case "aws-legacy":
		recs, err = ParseLegacy(r)
	default:
		return nil, fmt.Errorf("unknown trace format %q", format)
	}
	if err != nil {
		return nil, err
	}
	return Build(recs, product)
}
