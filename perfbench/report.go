package main

import (
	"fmt"
	"os"
	"runtime"

	"twigraph/internal/sparkdb"
)

// result turns a finished run into metrics.
type result struct {
	bn    *bench
	setup *setupResult

	heapMB                   float64
	neoBytes, imageBytes     int64
	edges                    int
	bitmapSetup, bitmapAfter sparkdb.BitmapStats
}

// measureStatic records what set-up left behind, before the workload
// runs: live heap, store sizes and the bitmap container mix.
func (r *result) measureStatic() error {
	b := r.bn.b
	r.heapMB = liveHeapMB()
	var err error
	if r.neoBytes, err = treeBytes(b.neoDir); err != nil {
		return err
	}
	info, err := os.Stat(b.image)
	if err != nil {
		return err
	}
	r.imageBytes = info.Size()
	r.edges = b.sum.TotalEdges()
	r.bitmapSetup = b.spark.DB().BitmapStats()
	return nil
}

var engineNames = [2]string{"neo", "spark"}

// endToEnd returns the metrics a user of the engines sees.
func (r *result) endToEnd() []metric {
	bn := r.bn
	ms := []metric{
		{name: "setup_s", value: r.setup.medianOf(func(b *build) float64 { return b.total.Seconds() }), unit: "s"},
		{name: "heap_mb", value: r.heapMB, unit: "MB"},
		{name: "neo_bytes_per_edge", value: float64(r.neoBytes) / float64(r.edges), unit: "B"},
		{name: "spark_bytes_per_edge", value: float64(r.imageBytes) / float64(r.edges), unit: "B"},
	}
	for e, er := range bn.runs {
		ms = append(ms, metric{name: engineNames[e] + "_ops_per_s", value: median(er.rates), unit: "1/s", n: len(er.rates)})
	}
	for e, er := range bn.runs {
		ms = append(ms, metric{name: engineNames[e] + "_p50_ms", value: er.lat.q(0.50, bn.measureStart, bn.measured), unit: "ms", n: er.lat.n()})
	}
	return ms
}

// perLayer returns the per-layer metrics of a traced run.
func (r *result) perLayer() []metric {
	bn, su := r.bn, r.setup
	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name: name, value: v, unit: unit}) }

	// Set-up: generator, importers.
	add("gen.stream_s", su.medianOf(func(b *build) float64 { return b.genD.Seconds() }), "s")
	add("ingest.neo_s", su.medianOf(func(b *build) float64 { return b.neoD.Seconds() }), "s")
	add("ingest.spark_s", su.medianOf(func(b *build) float64 { return b.sparkD.Seconds() }), "s")
	add("ingest.neo_rows_per_s", su.medianOf(func(b *build) float64 { return float64(b.rows()) / b.neoD.Seconds() }), "1/s")
	add("ingest.spark_rows_per_s", su.medianOf(func(b *build) float64 { return float64(b.rows()) / b.sparkD.Seconds() }), "1/s")
	for e, name := range engineNames {
		pick := func(b *build) stages { return b.neoStages }
		if e == 1 {
			pick = func(b *build) stages { return b.sparkStages }
		}
		add("ingest."+name+".parse_s", su.medianOf(func(b *build) float64 { return pick(b).parse.Seconds() }), "s")
		add("ingest."+name+".resolve_s", su.medianOf(func(b *build) float64 { return pick(b).resolve.Seconds() }), "s")
		add("ingest."+name+".apply_s", su.medianOf(func(b *build) float64 { return pick(b).apply.Seconds() }), "s")
	}

	// twitter: mean store-call time per query.
	for e, er := range bn.runs {
		for _, q := range table2 {
			add("twitter."+engineNames[e]+"."+q.id+".mean_ms", er.meanMS(q.id), "ms")
		}
		add("twitter."+engineNames[e]+"."+applyID+".mean_ms", er.meanMS(applyID), "ms")
	}

	// par and spmat: per-op deltas of each engine's counters.
	var delta [2]counters
	for e := range delta {
		delta[e] = bn.after[e].sub(bn.before[e])
	}
	for e, er := range bn.runs {
		name := engineNames[e]
		add("par."+name+".shards_per_op", delta[e].per("par_shards", er.ops), "count")
		add("par."+name+".merge_us_per_op", delta[e].per("par_merge_nanos", er.ops)/1e3, "us")
		add("spmat."+name+".nav_hops_per_op", delta[e].per("exec_nav_hops", er.ops), "count")
		add("spmat."+name+".matrix_hops_per_op", delta[e].per("exec_matrix_hops", er.ops), "count")
	}

	// neodb, its write path and its page cache.
	dn, neoOps, neoWrites := delta[0], bn.runs[0].ops, bn.runs[0].writes
	add("neodb.record_fetches_per_op", dn.per("record_fetches", neoOps), "count")
	add("neodb.rel_chain_hops_per_op", dn.per("rel_chain_hops", neoOps), "count")
	add("neodb.dense_group_scans_per_op", dn.per("dense_group_scans", neoOps), "count")
	add("neodb.wal_appends_per_write", dn.per("wal_appends", neoWrites), "count")
	add("neodb.wal_syncs_per_write", dn.per("wal_syncs", neoWrites), "count")
	hitRatio := 1.0
	if acc := dn["pagecache_hits"] + dn["pagecache_faults"]; acc > 0 {
		hitRatio = float64(dn["pagecache_hits"]) / float64(acc)
	}
	add("pagecache.hit_ratio", hitRatio, "ratio")
	add("pagecache.faults_per_op", dn.per("pagecache_faults", neoOps), "count")
	add("pagecache.evictions_per_op", dn.per("pagecache_evictions", neoOps), "count")
	add("pagecache.flushes_per_op", dn.per("pagecache_flushes", neoOps), "count")

	// sparkdb navigation and bitmap kernels.
	ds, sparkOps := delta[1], bn.runs[1].ops
	for _, c := range []string{"bitmap_and_ops", "bitmap_or_ops", "bitmap_scan_ops", "nav_neighbors", "nav_explodes"} {
		add("sparkdb."+c+"_per_op", ds.per(c, sparkOps), "count")
	}

	// bitmap container mix after set-up and after the workload.
	for _, s := range []struct {
		suffix string
		st     sparkdb.BitmapStats
	}{{"", r.bitmapSetup}, {"_after_run", r.bitmapAfter}} {
		add("bitmap.array_containers"+s.suffix, float64(s.st.Arrays), "count")
		add("bitmap.run_containers"+s.suffix, float64(s.st.Runs), "count")
		add("bitmap.bitset_containers"+s.suffix, float64(s.st.Bitsets), "count")
		add("bitmap.mem_mb"+s.suffix, float64(s.st.MemBytes)/1e6, "MB")
	}

	// serve, driver and load generator (zero off the served workload).
	sv := bn.served
	if sv == nil {
		sv = &servedStats{}
	}
	for _, ph := range []string{"queue_wait", "execute", "first_record", "stream"} {
		h := sv.phases[ph]
		add("serve."+ph+"_p50_ms", h.P50/1e6, "ms")
		add("serve."+ph+"_p99_ms", h.P99/1e6, "ms")
	}
	add("serve.store_call_p50_ms", sv.storeCalls.q(0.50), "ms")
	add("serve.store_call_p99_ms", sv.storeCalls.q(0.99), "ms")
	add("serve.shed", float64(sv.shed), "count")
	add("driver.call_p50_ms", sv.driverCalls.q(0.50), "ms")
	add("driver.call_p99_ms", sv.driverCalls.q(0.99), "ms")
	add("driver.retries", float64(sv.retries), "count")
	add("loadgen.late_p99_ms", sv.late.q(0.99), "ms")

	// Go runtime: allocation and collection per op. Served requests of
	// both engines share the process, so there each engine carries the
	// process-wide figure.
	for e, er := range bn.runs {
		mem, ops := er.mem, er.ops
		if bn.served != nil {
			mem.add(bn.memBefore, bn.memAfter)
			ops = bn.runs[0].ops + bn.runs[1].ops
		}
		name := engineNames[e]
		if ops == 0 {
			ops = 1
		}
		add("runtime."+name+".alloc_kb_per_op", float64(mem.allocBytes)/1024/float64(ops), "KB")
		add("runtime."+name+".mallocs_per_op", float64(mem.mallocs)/float64(ops), "count")
		add("runtime."+name+".gc_per_kop", float64(mem.gcs)*1000/float64(ops), "count")
	}
	add("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")

	// Writes (embedded_feed_rw only), and op accounting.
	for e, er := range bn.runs {
		add(engineNames[e]+"_write_ops_per_s", median(er.writeRts), "1/s")
	}
	for e, er := range bn.runs {
		add("ops."+engineNames[e]+".attempted", float64(er.attempted), "count")
		add("ops."+engineNames[e]+".failed", float64(er.failed), "count")
	}

	ms = append(ms, r.traceMetrics()...)
	return ms
}

// traceMetrics splits per-op time into layer self times from the traced
// rounds, and reports what tracing cost.
func (r *result) traceMetrics() []metric {
	bn := r.bn
	perOp := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	self := bn.rec.selfTimes()
	us := func(layer string) float64 { return float64(self[layer]) / 1e3 }
	rows := 0
	for _, b := range r.setup.builds {
		rows += b.rows()
	}
	var loadgen, driver, serveSelf, store, residual, overhead float64
	if sv := bn.served; sv != nil {
		n := sv.traced
		loadgen = perOp(float64(sv.lateSum)/1e3, n)
		driver = perOp(float64(sv.driverSum-sv.serveSum)/1e3, n)
		serveSelf = perOp(float64(sv.serveSum)/1e3-float64(sv.storeSum.Load())/1e3, n)
		store = perOp(float64(sv.storeSum.Load())/1e3, n)
		if sv.latSum > 0 {
			parts := sv.lateSum + sv.driverSum
			residual = 100 * float64(sv.latSum-parts) / float64(sv.latSum)
		}
		if sv.untracedMeanMS > 0 {
			overhead = 100 * (sv.tracedMeanMS - sv.untracedMeanMS) / sv.untracedMeanMS
		}
	} else {
		n := bn.rec.count("loadgen")
		loadgen = perOp(us("loadgen"), n)
		store = perOp(us("twitter"), n)
		var sum float64
		for _, er := range bn.runs {
			if u := median(er.wallRates); u > 0 {
				sum += 100 * (1 - median(er.tracedRts)/u)
			}
		}
		overhead = sum / 2
	}
	return []metric{
		{name: "trace.loadgen.self_us_per_op", value: loadgen, unit: "us"},
		{name: "trace.driver.self_us_per_op", value: driver, unit: "us"},
		{name: "trace.serve.self_us_per_op", value: serveSelf, unit: "us"},
		{name: "trace.twitter.self_us_per_op", value: store, unit: "us"},
		{name: "trace.ingest.neo.self_us_per_op", value: perOp(us("ingest.neo"), rows), unit: "us"},
		{name: "trace.ingest.spark.self_us_per_op", value: perOp(us("ingest.spark"), rows), unit: "us"},
		{name: "trace.residual_pct", value: residual, unit: "%"},
		{name: "trace.overhead_pct", value: overhead, unit: "%"},
	}
}

// printHuman prints the run's metrics one per line, with sample counts
// behind percentiles, and the op accounting per engine.
func (r *result) printHuman(ms []metric) {
	bn := r.bn
	fmt.Printf("workload %s seed %d: %d users, %d edges, gomaxprocs %d, %d set-ups, measured %.1fs\n",
		bn.opt.workload, bn.opt.seed, bn.b.sum.Users, r.edges, runtime.GOMAXPROCS(0), len(r.setup.builds), bn.measured.Seconds())
	for _, m := range ms {
		n := ""
		if m.n > 0 {
			n = fmt.Sprintf("  (n=%d)", m.n)
		}
		fmt.Printf("  %-40s %14.6g %s%s\n", m.name, m.value, m.unit, n)
	}
	for e, er := range bn.runs {
		if bn.tracing() {
			break
		}
		if er.writes > 0 {
			fmt.Printf("  %-40s %14.6g 1/s  (n=%d)\n", engineNames[e]+"_write_ops_per_s", median(er.writeRts), len(er.writeRts))
		}
		// The tail is printed but not gated: on a VM that loses CPU to
		// other tenants it moves with the steal rate (see README.md).
		for _, q := range []float64{0.95, 0.99} {
			fmt.Printf("  %-40s %14.6g ms  (n=%d)\n", fmt.Sprintf("%s_p%.0f_ms", engineNames[e], 100*q),
				er.lat.q(q, bn.measureStart, bn.measured), er.lat.n())
		}
	}
	for e, er := range bn.runs {
		fmt.Printf("  ops %-5s attempted %d failed %d\n", engineNames[e], er.attempted, er.failed)
	}
}
