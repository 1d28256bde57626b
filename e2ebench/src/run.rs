//! One benchmark run: set-up, the measured job window, the front-door pass,
//! and the metrics they yield.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use scope_common::Result;

use crate::frontdoor::{self, FdConfig, FdStats};
use crate::jobs::{reference, Drive, JobService, Stream, WindowStats};
use crate::metrics::{median, min_samples_for, peak_rss_mb, ratio, Metric, RunResult, Samples};
use crate::replay::{Coverage, LayerCounts, Replay};
use crate::trace::{summarize, SpanTotals, Tracer};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Distinct days of jobs the front-door pass cycles through.
const FRONTDOOR_DISTINCT_DAYS: usize = 7;
/// The paced phase offers this share of the front door's capacity.
const FRONTDOOR_OFFERED_LOAD: f64 = 0.25;

/// How much work a run does. Fixed by the workload and `--seconds`
/// alone, so two runs with the same arguments do the same work.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Recurring instances or TPC-DS cycles in the measured window.
    pub units: u64,
    pub frontdoor: FdConfig,
}

impl Sizing {
    /// The sizing for a run of about `seconds` seconds on a 2-core host.
    /// The window always holds enough jobs for a p99 with 10 samples
    /// beyond it.
    pub fn for_run(stream: Stream, seconds: u64) -> Sizing {
        let s = seconds as f64;
        // Units per second, jobs per unit (and per front-door day), and
        // the front door's capacity in jobs per second: the median of the
        // capacity that `--seconds 30` tuning runs measured on the 2-core
        // host the bounds were tuned on (see the README).
        let (units_per_s, jobs_per_day, capacity) = match stream {
            Stream::Recurring => (8.0, 124.0, 11_000.0),
            Stream::Tpcds => (1.1, 99.0, 16_000.0),
        };
        let min_units = (min_samples_for(0.99) as f64 / jobs_per_day).ceil();
        let units = (units_per_s * s).ceil().max(min_units) as u64;
        // About three tenths of the run at the offered rate, and an
        // unpaced pass of about a tenth at capacity.
        let job_rate = FRONTDOOR_OFFERED_LOAD * capacity;
        let days =
            |share: f64, rate: f64| (share * s * rate / jobs_per_day).ceil().max(2.0) as usize;
        let paced_days = days(0.3, job_rate);
        let capacity_days = days(0.1, capacity);
        Sizing {
            units,
            frontdoor: FdConfig {
                job_rate,
                paced_days,
                capacity_days,
            },
        }
    }
}

/// Runs `stream` with tracing off (`traced == false`, end-to-end metrics)
/// or on (per-layer metrics). Durable state lives under `state_dir`.
pub fn run(
    stream: Stream,
    seed: u64,
    sizing: Sizing,
    traced: bool,
    state_dir: &Path,
) -> Result<RunResult> {
    let tracer = Tracer::new();
    let mut setup_s = Vec::new();
    let mut svc = None;
    let setups = if traced { 1 } else { SETUPS };
    for _ in 0..setups {
        // Drop the previous set-up first, so only one is alive at a time.
        drop(svc.take());
        let t = Instant::now();
        svc = Some(JobService::setup(stream, seed, traced.then_some(&tracer))?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let svc = svc.expect("at least one set-up");
    let refs = reference(stream, seed, sizing.units)?;

    // The measured window. A traced run alternates traced and untraced
    // units over the same inputs, so the two compare directly for the
    // layer coverage and the tracing overhead.
    let mut replay = Replay::new(&svc.cv, &tracer);
    let mut plain = WindowStats::default();
    let mut traced_stats = WindowStats::default();
    for u in 1..=sizing.units {
        let jobs = svc.prepare_unit(u)?;
        if traced && svc.traced_unit(u) {
            let drive = Drive::Traced(&mut replay);
            svc.run_unit(u, &jobs, &refs, drive, &mut traced_stats)?;
        } else {
            svc.run_unit(u, &jobs, &refs, Drive::Service, &mut plain)?;
        }
    }
    let spans = summarize(&tracer.take());

    let selection = svc.frontdoor_selection()?;
    let days = frontdoor::compile_days(&svc.frontdoor_days(FRONTDOOR_DISTINCT_DAYS)?)?;
    let dir = state_dir.join(format!("{}-{}", stream.name(), std::process::id()));
    let fd = frontdoor::run_pass(&dir, &selection, &days, sizing.frontdoor, traced);
    let _ = std::fs::remove_dir_all(&dir);
    let fd = fd?;

    let failed = plain.failed + traced_stats.failed + fd.failed;
    let attempted = plain.jobs + traced_stats.jobs + fd.rpcs;
    let correct = failed == 0 && fd.fingerprints_equal;
    let metrics = if traced {
        layer_metrics(&spans, &replay.counts, &traced_stats, &plain, &fd)
    } else {
        end_to_end_metrics(median(&setup_s), &plain, &fd, attempted, failed)
    };
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
    })
}

fn end_to_end_metrics(
    setup_s: f64,
    w: &WindowStats,
    fd: &FdStats,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let walls = Samples::new(w.job_walls_ms.clone());
    eprintln!("{}", walls.tail_note("job wall", 0.99));
    eprintln!("{}", fd.rpc_us.tail_note("rpc latency", 0.99));
    eprintln!(
        "front door: {:.1}% of paced requests write; offered {:.0} ops/s = \
         {:.1}% of the measured capacity ({:.0} ops/s, {:.0} jobs/s); \
         rpc p50 {:.2} us over all samples, p99 {:.0} us; generator lateness p99 {:.0} us; \
         recovery {:.4} s",
        100.0 * fd.write_share(),
        fd.offered_ops_per_s,
        100.0 * fd.offered_load_frac(),
        fd.capacity_ops_per_s,
        fd.capacity_ops_per_s * ratio(fd.paced_lookups as f64, fd.paced_rpcs as f64),
        fd.rpc_us.median(),
        fd.rpc_us.p(0.99),
        fd.late_us.p(0.99),
        fd.recovery_s
    );
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("jobs_per_s", "1/s", w.jobs_per_s()),
        Metric::new("job_wall_p50_ms", "ms", walls.median()),
        Metric::new("job_wall_p99_ms", "ms", walls.p(0.99)),
        Metric::new("reuse_job_frac", "frac", w.reuse_job_frac()),
        Metric::new("sim_cpu_saved_frac", "frac", w.sim_cpu_saved_frac()),
        Metric::new("rpc_p50_us", "us", fd.rpc_p50_us),
        Metric::new("disk_bytes_per_write", "B", fd.disk_bytes_per_write()),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
        Metric::new(
            "ok_frac",
            "frac",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
    ]
}

fn layer_metrics(
    spans: &BTreeMap<&'static str, SpanTotals>,
    c: &LayerCounts,
    traced: &WindowStats,
    plain: &WindowStats,
    fd: &FdStats,
) -> Vec<Metric> {
    let get = |name: &str| spans.get(name).copied().unwrap_or_default();
    let fd_get = |name: &str| fd.spans.get(name).copied().unwrap_or_default();
    let coverage = Coverage::of(spans, &plain.job_walls_ms);
    let exec = get("exec.execute");
    let publish_ns = get("storage.materialize").self_ns + get("storage.publish").self_ns;
    let net = ["net.lookup", "net.propose", "net.report"].map(fd_get);
    let inproc = ["inproc.lookup", "inproc.propose", "inproc.report"].map(fd_get);
    let net_ns: u64 = net.iter().map(|t| t.total_ns).sum();
    let net_calls: u64 = net.iter().map(|t| t.count).sum();
    let inproc_ns: u64 = inproc.iter().map(|t| t.total_ns).sum();
    let inproc_calls: u64 = inproc.iter().map(|t| t.count).sum();
    let mean_wall = |w: &WindowStats| Samples::new(w.job_walls_ms.clone()).mean();
    vec![
        Metric::new(
            "signature.compile_ms",
            "ms",
            get("signature.compile").mean_self_ms(),
        ),
        Metric::new(
            "signature.template_hit_frac",
            "frac",
            ratio(c.template_hits as f64, c.compiles as f64),
        ),
        Metric::new(
            "metadata.lookup_ms",
            "ms",
            get("metadata.lookup").mean_self_ms(),
        ),
        Metric::new("metadata.lookup_calls", "count", c.lookups as f64),
        Metric::new(
            "metadata.annotations_per_lookup",
            "count",
            ratio(c.annotations as f64, c.lookups as f64),
        ),
        Metric::new(
            "metadata.tier2_per_lookup",
            "count",
            ratio(c.tier2 as f64, c.lookups as f64),
        ),
        Metric::new(
            "metadata.propose_ms",
            "ms",
            get("metadata.propose").mean_self_ms(),
        ),
        Metric::new(
            "metadata.report_ms",
            "ms",
            get("metadata.report").mean_self_ms(),
        ),
        Metric::new(
            "metadata.propose_granted_frac",
            "frac",
            ratio(c.proposes_granted as f64, c.proposes as f64),
        ),
        Metric::new(
            "optimizer.optimize_ms",
            "ms",
            get("optimizer.optimize").mean_self_ms(),
        ),
        Metric::new("optimizer.views_reused", "count", c.views_reused as f64),
        Metric::new("optimizer.views_marked", "count", c.views_marked as f64),
        Metric::new("exec.execute_ms", "ms", exec.mean_self_ms()),
        Metric::new("exec.input_rows", "count", c.input_rows as f64),
        Metric::new(
            "exec.rows_per_s",
            "1/s",
            ratio(c.input_rows as f64, exec.self_ns as f64 / 1e9),
        ),
        Metric::new("sim.simulate_ms", "ms", get("sim.simulate").mean_self_ms()),
        Metric::new(
            "storage.publish_ms",
            "ms",
            ratio(publish_ns as f64 / 1e6, c.views_built as f64),
        ),
        Metric::new("storage.view_bytes", "B", c.view_bytes as f64),
        Metric::new("repo.record_ms", "ms", get("repo.record").mean_self_ms()),
        Metric::new(
            "analyzer.absorb_ms",
            "ms",
            get("analyzer.absorb").mean_self_ms(),
        ),
        Metric::new(
            "analyzer.round_ms",
            "ms",
            get("analyzer.round").mean_self_ms(),
        ),
        Metric::new("store.wal_bytes", "B", fd.wal_bytes as f64),
        Metric::new("store.snapshots", "count", fd.snapshots as f64),
        Metric::new("store.disk_bytes", "B", fd.disk_bytes as f64),
        Metric::new("store.recovery_s", "s", fd.recovery_s),
        Metric::new("net.lookup_us", "us", net[0].mean_ms() * 1e3),
        Metric::new("net.propose_us", "us", net[1].mean_ms() * 1e3),
        Metric::new("net.report_us", "us", net[2].mean_ms() * 1e3),
        Metric::new(
            "net.inproc_us",
            "us",
            ratio(inproc_ns as f64 / 1e3, inproc_calls as f64),
        ),
        Metric::new(
            "net.wire_overhead_us",
            "us",
            ratio(net_ns as f64 / 1e3, net_calls as f64)
                - ratio(inproc_ns as f64 / 1e3, inproc_calls as f64),
        ),
        Metric::new("net.busy_sheds", "count", fd.busy_sheds as f64),
        Metric::new("net.capacity_ops_per_s", "1/s", fd.capacity_ops_per_s),
        Metric::new("net.rpc_p99_us", "us", fd.rpc_us.p(0.99)),
        Metric::new("loadgen.late_p99_us", "us", fd.late_us.p(0.99)),
        Metric::new("runtime.job_ms", "ms", coverage.job_ms),
        Metric::new("runtime.unattributed_ms", "ms", coverage.unattributed_ms),
        Metric::new("runtime.layer_coverage", "frac", coverage.layer_coverage),
        Metric::new(
            "trace.overhead_frac",
            "frac",
            ratio(mean_wall(traced), mean_wall(plain)) - 1.0,
        ),
    ]
}
