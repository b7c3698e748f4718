package main

import (
	"bytes"
	"context"
	"time"

	"repro/internal/obs"
)

// scrape is one reading of /metrics: every series' value, summed over label
// sets under the series name (histogram _sum and _count keep their suffix).
// The harness only ever needs totals and their change across a phase.
type scrape map[string]float64

func parseScrape(page []byte) (scrape, error) {
	fams, err := obs.ParseExposition(bytes.NewReader(page))
	if err != nil {
		return nil, err
	}
	out := scrape{}
	for _, fam := range fams {
		for _, s := range fam.Series {
			if fam.Type == "histogram" && isBucket(s) {
				continue
			}
			out[s.Name] += s.Value
		}
	}
	return out, nil
}

func isBucket(s obs.ParsedSeries) bool {
	for _, l := range s.Labels {
		if l.Name == "le" {
			return true
		}
	}
	return false
}

// scrapeMetrics fetches and parses /metrics and reports how long the client
// waited for the page.
func scrapeMetrics(ctx context.Context, c *client) (scrape, float64, error) {
	t0 := time.Now()
	page, err := c.get(ctx, "/metrics", "")
	took := ms(time.Since(t0))
	if err != nil {
		return nil, 0, err
	}
	s, err := parseScrape(page)
	return s, took, err
}

// delta is after − before, series by series.
func delta(before, after scrape) scrape {
	out := make(scrape, len(after))
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// ratio is num ÷ den, or 0 when den is 0 (the layer was not exercised).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
