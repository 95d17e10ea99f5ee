package main

import (
	"runtime"
	"strconv"
	"time"

	"arcs/internal/core"
	"arcs/internal/obs"
)

// layerSamples collects one value per traced operation for each
// per-layer metric; the reported figure is the median.
type layerSamples map[string][]float64

func (l layerSamples) add(vals map[string]float64) {
	for k, v := range vals {
		l[k] = append(l[k], v)
	}
}

func (l layerSamples) medians(into map[string]float64) {
	for k, vs := range l {
		into[k] = median(vs)
	}
}

// countsBackendCode encodes the count backend as a number: dense 1,
// sparse 2, spill 3 (0 when no count span was seen).
var countsBackendCode = map[string]float64{"dense": 1, "sparse": 2, "spill": 3}

// coreLayers reads the stage spans and counters the pipeline emits
// through core.Config.Observer for one operation, plus the search
// summaries on its results.
func coreLayers(events []obs.Event, snap *obs.Snapshot, results []*core.Result) map[string]float64 {
	sum := map[string]time.Duration{}
	v := map[string]float64{}
	for _, ev := range events {
		if ev.Type != obs.EventSpan {
			continue
		}
		sum[ev.Name] += ev.Duration
		if ev.Name == "count" {
			v["counts.backend"] = countsBackendCode[ev.Attr("backend")]
			v["counts.workers"] = attrFloat(ev, "workers")
			v["counts.mem_bytes"] += attrFloat(ev, "mem_bytes")
		}
	}
	v["core.ingest_s"] = sum["ingest"].Seconds()
	v["core.binfit_s"] = sum["binfit"].Seconds()
	v["core.count_s"] = sum["count"].Seconds()
	v["core.verify_index_s"] = sum["verify-index"].Seconds()
	v["search.s"] = sum["search"].Seconds()
	v["engine.mine_s"] = (sum["mine"] + sum["mine-final"]).Seconds()
	v["cluster.s"] = sum["cluster"].Seconds()
	v["verify.s"] = (sum["verify"] + sum["verify-final"]).Seconds()
	v["mdl.s"] = sum["mdl"].Seconds()

	var probes, hits, accepted int
	for _, res := range results {
		probes += res.Provenance.Probes
		accepted += res.Provenance.Accepted
		hits += res.Cache.Hits
	}
	v["search.probes"] = float64(probes)
	v["search.cache_hit_ratio"] = ratio(float64(hits), float64(probes))
	v["search.accepted_ratio"] = ratio(float64(accepted), float64(probes))
	v["search.pool_workers"] = float64(snap.Gauges["pool_workers"])
	v["bitop.and_word_ops"] = float64(snap.Counters["bitop_and_word_ops_total"])
	v["bitop.candidates"] = float64(snap.Counters["bitop_candidates_total"])
	fast := float64(snap.Counters["verify_fastpath_rules_total"])
	v["verify.fastpath_ratio"] = ratio(fast, fast+float64(snap.Counters["verify_fallback_rules_total"]))
	return v
}

func attrFloat(ev obs.Event, key string) float64 {
	f, err := strconv.ParseFloat(ev.Attr(key), 64)
	if err != nil {
		return 0
	}
	return f
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gcDelta is the benchmark process's own garbage-collector work between
// two MemStats readings, for in-process replays.
func gcDelta(before, after *runtime.MemStats) map[string]float64 {
	return map[string]float64{
		"runtime.gc_cycles":   float64(after.NumGC - before.NumGC),
		"runtime.alloc_mb":    float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		"runtime.gc_pause_ms": float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
}
