package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// endToEnd fills the end-to-end metrics from the measured jobs. Jobs that
// ended without a result are left out; a wrong result fails the run.
func endToEnd(rep *report, outs []outcome, wall time.Duration, setups []float64) {
	var ms []float64
	var uops, auditMax, rss float64
	for _, o := range outs {
		if o.Err != nil || o.View.Result == nil {
			continue
		}
		ms = append(ms, float64(o.Wall.Nanoseconds())/1e6)
		rss += o.PeakRSSMB
		uops += float64(o.View.Result.MicroOps)
		if o.Audit != nil {
			auditMax = math.Max(auditMax, o.Audit.MaxErrorPct)
		}
	}
	sec := wall.Seconds()
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	set("job_ms_p50", quantile(ms, 0.5), "ms")
	set("job_ms_p90", quantile(ms, 0.9), "ms")
	set("jobs_per_s", float64(len(ms))/sec, "1/s")
	set("kuops_per_s", uops/sec/1e3, "kuops/s")
	set("peak_rss_mb", rss/math.Max(1, float64(len(ms))), "MB")
	set("audit_max_err_pct", auditMax, "%")
	set("setup_s", quantile(setups, 0.5), "s")
}

// perLayer fills the per-layer metrics from the replay's spans, the traced
// jobs' journal records, the fleet probe and the observability arms.
func perLayer(rep *report, w *benchWorkload, outs []outcome, rec *recorder, chunks int, obsPct float64) {
	set := func(name string, v float64, unit string) { rep.Metrics[name] = metric{Value: v, Unit: unit} }
	med := func(name string) float64 { return quantile(rec.durs(name, ""), 0.5) }

	set("workload.gen_ms", med("workload.gen"), "ms")
	set("cpu.sim_ms", med("cpu.sim"), "ms")
	set("cpu.muops_per_s", rec.rate("cpu.sim")/1e6, "Muops/s")
	set("core.analyze_ms", med("core.analyze"), "ms")
	set("core.analyze_kuops_per_s", rec.rate("core.analyze")/1e3, "kuops/s")
	set("core.analyze_alloc_mb", quantile(rec.allocMB, 1), "MB")
	set("depgraph.build_ms", med("depgraph.build"), "ms")
	set("depgraph.eval_points_per_s", rec.rate("depgraph.eval"), "points/s")
	set("core.predict_points_per_s", rec.rate("core.predict"), "points/s")
	set("dse.search_ms", med("dse.search"), "ms")
	set("audit.run_ms", med("audit.run"), "ms")
	set("trace.encode_ms", med("trace.encode"), "ms")
	set("trace.decode_ms", med("trace.decode"), "ms")
	set("trace.digest_ms", med("trace.digest"), "ms")
	set("core.codec_encode_ms", med("core.codec_encode"), "ms")
	set("core.codec_decode_ms", med("core.codec_decode"), "ms")
	set("store.put_ms", med("store.put"), "ms")
	set("store.get_ms", med("store.get"), "ms")
	set("store.open_ms", med("store.open"), "ms")

	// Exact counts: the same inputs give the same values on every run.
	set("core.stacks", float64(rec.stacks), "count.exact")
	set("dse.search_probes", rec.sumWork("dse.search"), "count.exact")
	set("audit.points", rec.sumWork("audit.run"), "count.exact")
	set("store.bytes", rec.sumWork("store.put"), "bytes.exact")
	set("fleet.chunks", float64(chunks), "count.exact")
	var mem, disk, builds float64
	for _, o := range outs {
		if o.Rec != nil {
			mem += float64(o.Rec.CacheMemHits)
			disk += float64(o.Rec.CacheDiskHits)
			builds += float64(o.Rec.CacheBuilds)
		}
	}
	set("cache.mem_hits", mem, "count.exact")
	set("cache.disk_hits", disk, "count.exact")
	set("cache.builds", builds, "count.exact")

	set("fleet.chunk_overhead_ms", (med("fleet.run")-med("fleet.local"))/float64(chunks), "ms")
	set("obs.overhead_pct", obsPct, "%")

	var overhead, gap []float64
	for _, o := range outs {
		if o.Rec == nil || o.View.Result == nil {
			continue
		}
		setup, sweep, audit := layerCost(w, o, rec)
		overhead = append(overhead, float64(o.Wall.Nanoseconds())/1e6-setup-sweep-audit)
		gap = append(gap, o.Rec.SetupMS+o.Rec.SweepMS-setup-sweep)
	}
	set("serve.overhead_ms", quantile(overhead, 0.5), "ms")
	set("serve.journal_gap_ms", quantile(gap, 0.5), "ms")
}

// layerCost sums, in ms, the replay's times for the layers one job went
// through: its set-up as the journal record's cache outcomes say it ran
// (built, read from disk, or found in memory), its sweep or search, and
// its audit.
func layerCost(w *benchWorkload, o outcome, rec *recorder) (setup, sweep, audit float64) {
	in := w.Round[o.Job].In
	key := in.recipe().String()
	t := func(name string) float64 { return quantile(rec.durs(name, key), 0.5) }
	switch {
	case o.Rec.CacheBuilds > 0:
		if !in.Upload {
			setup += t("workload.gen") + t("cpu.sim") + t("trace.digest")
		}
		setup += t("core.analyze") + t("depgraph.build")
		if w.Kind == kindCold { // the only kind with a store and misses
			if !in.Upload {
				setup += t("trace.encode")
			}
			setup += t("core.codec_encode") + float64(len(rec.durs("store.put", key)))*t("store.put")
		}
	case o.Rec.CacheDiskHits > 0:
		setup += quantile(rec.durs("store.open", ""), 0.5)
		if !in.Upload {
			setup += t("store.get") + t("trace.decode") + t("workload.gen") + t("trace.digest")
		}
		setup += t("store.get") + t("core.codec_decode") + t("depgraph.build")
	}
	if in.Upload {
		// The upload is decoded and digested at submission.
		setup += t("trace.decode") + t("trace.digest")
	}
	job := jobKey(o.Job)
	for _, name := range []string{"core.predict", "depgraph.eval", "dse.search"} {
		sweep += quantile(rec.durs(name, job), 0.5)
	}
	audit = quantile(rec.durs("audit.run", job), 0.5)
	return setup, sweep, audit
}

// printTable writes the report as a table for people.
func printTable(out io.Writer, workload string, rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "jobbench: %s: %d jobs attempted, %d failed (failed_frac %.4f), correct %v\n",
		workload, rep.Attempted, rep.Failed, float64(rep.Failed)/math.Max(1, float64(rep.Attempted)), rep.Correct)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// printJobs writes each round job's median latency, so a shift in one
// metric can be traced to the jobs that moved it.
func printJobs(out io.Writer, w *benchWorkload, outs []outcome) {
	byJob := make([][]float64, len(w.Round))
	for _, o := range outs {
		byJob[o.Job] = append(byJob[o.Job], float64(o.Wall.Nanoseconds())/1e6)
	}
	for ji, j := range w.Round {
		what := j.Engine
		if j.Search != "" {
			what += " " + j.Search
		}
		if j.AuditFraction > 0 {
			what += " audited"
		}
		fmt.Fprintf(out, "  job %d %-28s %-22s %4d jobs, median %10.2f ms\n",
			ji, j.In, what, len(byJob[ji]), quantile(byJob[ji], 0.5))
	}
}
