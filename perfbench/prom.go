package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"roamsim/internal/obs"
)

// sample is one series of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape reads every series the registry exposes.
func scrape(reg *obs.Registry) ([]sample, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	var out []sample
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("exposition line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		s := sample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			// Label values here are shard numbers, routes and bucket
			// bounds, none of which holds a quote or comma.
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				k, val, _ := strings.Cut(kv, "=")
				s.labels[k] = strings.Trim(val, `"`)
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out, nil
}

// shardLayers derives the shard.imbalance and walsink.* metrics from
// the gateway's and the shard WALs' series.
func shardLayers(samples []sample) map[string]float64 {
	perShard := map[string]float64{}
	var fsyncs, records, bytes float64
	buckets := map[float64]float64{} // le -> cumulative count over all shards
	for _, s := range samples {
		switch s.name {
		case "gateway_requests_total":
			perShard[s.labels["shard"]] += s.value
		case "walsink_fsyncs_total":
			fsyncs += s.value
		case "walsink_records_total":
			records += s.value
		case "walsink_bytes":
			bytes += s.value
		case "walsink_fsync_ms_bucket":
			le, err := strconv.ParseFloat(s.labels["le"], 64)
			if err == nil {
				buckets[le] += s.value
			}
		}
	}
	var maxReqs, sumReqs float64
	for _, n := range perShard {
		maxReqs = math.Max(maxReqs, n)
		sumReqs += n
	}
	return map[string]float64{
		"shard.imbalance":           ratio(maxReqs, ratio(sumReqs, float64(len(perShard)))),
		"walsink.fsyncs":            fsyncs,
		"walsink.fsync_ms_p50":      bucketQuantile(buckets, 0.5),
		"walsink.bytes":             bytes,
		"walsink.records_per_fsync": ratio(records, fsyncs),
	}
}

// bucketQuantile estimates a quantile from cumulative histogram
// buckets, interpolating linearly inside the bucket that holds it.
func bucketQuantile(cum map[float64]float64, q float64) float64 {
	les := make([]float64, 0, len(cum))
	for le := range cum {
		les = append(les, le)
	}
	sort.Float64s(les)
	if len(les) == 0 || cum[les[len(les)-1]] == 0 {
		return 0
	}
	target := q * cum[les[len(les)-1]]
	lo, prev := 0.0, 0.0
	for _, le := range les {
		if c := cum[le]; c >= target {
			if math.IsInf(le, 1) || c == prev {
				return lo
			}
			return lo + (le-lo)*(target-prev)/(c-prev)
		}
		lo, prev = le, cum[le]
	}
	return lo
}
