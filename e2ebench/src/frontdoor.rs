//! The durable front-door pass: Figure 9's metadata traffic of a job
//! stream, sent over loopback to a `scope_net::NetServer` that serves a
//! `durable(dir)` service, then a cold start from `dir`.
//!
//! No engine runs here. Each job is a lookup with its compile tags at its
//! pinned time, a propose for each annotation whose signature the job
//! contains, and a report for each propose the service grants. One purge
//! per simulated day. Two client threads, each on its own connection, send
//! an open-loop schedule at the workload's offered job rate; requests are
//! timed from when they were due. An unpaced pass over further days then
//! gives capacity.
//!
//! The front door's speed depends on state that is set when its threads
//! and connections start: where the kernel places the four threads, and
//! their sockets and stacks. Between fresh passes in one process the median
//! latency moved by up to a fifth. So the pass is split into `PASSES`
//! sub-passes, each on a fresh server, connections and client threads, and
//! latency and capacity are the medians of the sub-passes' figures.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cloudviews::analyzer::SelectedView;
use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::{CloudViews, LockOutcome, MetadataService};
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, VcId};
use scope_common::intern::Symbol;
use scope_common::time::{SimDuration, SimTime};
use scope_common::Result;
use scope_engine::job::JobSpec;
use scope_engine::optimizer::AvailableView;
use scope_engine::storage::StorageManager;
use scope_net::{NetClient, NetServer, ServerConfig};
use scope_signature::TemplateCache;

use crate::metrics::{median, ratio, Samples};
use crate::trace::{summarize, SpanRecord, SpanTotals, Tracer};

const DAY: SimDuration = SimDuration::from_secs(86_400);
/// Simulated spacing of jobs within a day.
const JOB_SPACING: SimDuration = SimDuration::from_secs(60);
const LOCK_TTL: SimDuration = SimDuration::from_secs(3_600);
/// Client connections (and client threads), and server workers.
const CONNECTIONS: usize = 2;
/// Sub-passes per pass, each on a fresh server, connections and client
/// threads; latency and capacity are the medians of theirs.
const PASSES: usize = 8;
/// Cold starts per pass; the reported recovery time is their median.
const COLD_STARTS: usize = 9;

/// One job's metadata traffic, compiled ahead of the pass.
#[derive(Clone, Debug)]
pub struct FdJob {
    id: u64,
    vc: VcId,
    tags: Vec<Symbol>,
    /// Normalized → precise signature of every subgraph of the job.
    precise_of: HashMap<Sig128, Sig128>,
}

impl FdJob {
    /// The job's id and pinned time when it runs as job `k` of day `d`.
    fn on_day(&self, d: usize, k: usize) -> (JobId, SimTime) {
        (
            JobId::new(((d as u64) << 32) | (self.id & 0xFFFF_FFFF)),
            SimTime::ZERO + DAY.mul_f64(d as f64) + JOB_SPACING.mul_f64(k as f64),
        )
    }
}

/// Compiles each day's jobs into their metadata traffic with the compile
/// path's template cache, as a compiler in front of the service would.
pub fn compile_days(days: &[Vec<JobSpec>]) -> Result<Vec<Vec<FdJob>>> {
    let cache = TemplateCache::new();
    days.iter()
        .map(|jobs| {
            jobs.iter()
                .map(|spec| {
                    let compiled = cache.compile(&spec.graph)?;
                    Ok(FdJob {
                        id: spec.id.raw(),
                        vc: spec.vc,
                        tags: compiled.tags,
                        precise_of: compiled
                            .infos
                            .iter()
                            .map(|i| (i.normalized, i.precise))
                            .collect(),
                    })
                })
                .collect()
        })
        .collect()
}

/// Pass sizing: paced days at `job_rate` jobs/s over both connections,
/// then unpaced days. Day `d` replays compiled day `d % compiled.len()` at
/// day `d`'s times.
#[derive(Clone, Copy, Debug)]
pub struct FdConfig {
    pub job_rate: f64,
    pub paced_days: usize,
    pub capacity_days: usize,
}

/// A request as sent, kept for the in-process comparison.
#[derive(Clone, Debug)]
enum Sent {
    Lookup(LookupRequest),
    Propose(ProposeRequest),
    Report(ReportRequest),
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    /// Latency of each request from when it was due, µs.
    rpc_us: Vec<f64>,
    /// How late each job's first request left, µs.
    late_us: Vec<f64>,
    rpcs: u64,
    lookups: u64,
    writes_acked: u64,
    failed: u64,
    /// Requests sent per day, and (client 0 only) each day's wall time.
    day_rpcs: Vec<u64>,
    day_wall_s: Vec<f64>,
    /// Requests in send order with their send instants (traced runs).
    sent: Vec<(Instant, Sent)>,
}

/// What a front-door pass measured.
#[derive(Clone, Debug, Default)]
pub struct FdStats {
    /// Latency of every paced request, µs.
    pub rpc_us: Samples,
    /// Median over sub-passes of each one's median paced latency, µs.
    pub rpc_p50_us: f64,
    pub late_us: Samples,
    /// Requests per second the paced phase offered.
    pub offered_ops_per_s: f64,
    pub capacity_ops_per_s: f64,
    pub recovery_s: f64,
    pub disk_bytes: u64,
    pub wal_bytes: u64,
    pub snapshots: u64,
    /// Requests that changed the service's state (granted proposes,
    /// reports, purges).
    pub writes_acked: u64,
    pub rpcs: u64,
    pub failed: u64,
    /// Requests and lookups of the paced phase.
    pub paced_rpcs: u64,
    pub paced_lookups: u64,
    pub busy_sheds: u64,
    pub fingerprints_equal: bool,
    /// Span totals of a traced pass (wire calls, in-process calls,
    /// recovery).
    pub spans: std::collections::BTreeMap<&'static str, SpanTotals>,
}

impl FdStats {
    pub fn disk_bytes_per_write(&self) -> f64 {
        ratio(self.disk_bytes as f64, self.writes_acked as f64)
    }

    /// Share of the paced phase's requests that were proposes, reports or
    /// purges.
    pub fn write_share(&self) -> f64 {
        1.0 - ratio(self.paced_lookups as f64, self.paced_rpcs as f64)
    }

    /// The paced phase's offered request rate as a share of the capacity
    /// this pass measured.
    pub fn offered_load_frac(&self) -> f64 {
        ratio(self.offered_ops_per_s, self.capacity_ops_per_s)
    }
}

fn open_durable(dir: &Path) -> Result<CloudViews> {
    CloudViews::builder(Arc::new(StorageManager::new()))
        .durable(dir)
        .try_build()
}

/// Runs one job's Figure 9 traffic on `client`; `due` is when its lookup
/// was due.
fn run_job(
    client: &mut NetClient,
    job: &FdJob,
    (id, at): (JobId, SimTime),
    due: Instant,
    tracer: Option<&Tracer>,
    log: &mut ClientLog,
) {
    let traced = tracer.is_some();
    let span = |name: &'static str, f: &mut dyn FnMut()| match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    };
    let mut due = due;
    let mut finish = |log: &mut ClientLog, ok: bool, write: bool| {
        let now = Instant::now();
        log.rpcs += 1;
        log.rpc_us.push(now.duration_since(due).as_secs_f64() * 1e6);
        if !ok {
            log.failed += 1;
        } else if write {
            log.writes_acked += 1;
        }
        due = now;
    };
    log.lookups += 1;
    let lookup = LookupRequest::new(id, &job.tags, at).for_vc(job.vc);
    if traced {
        log.sent
            .push((Instant::now(), Sent::Lookup(lookup.clone())));
    }
    let mut resp = None;
    span("net.lookup", &mut || resp = Some(client.lookup(&lookup)));
    let annotations = match resp.expect("lookup ran") {
        Ok(r) => {
            finish(log, true, false);
            r.annotations
        }
        Err(_) => {
            finish(log, false, false);
            return;
        }
    };
    for a in &annotations {
        let Some(&precise) = job.precise_of.get(&a.normalized) else {
            continue;
        };
        let propose = ProposeRequest::new(precise, id, LOCK_TTL, at).for_vc(job.vc);
        if traced {
            log.sent.push((Instant::now(), Sent::Propose(propose)));
        }
        let mut out = None;
        span("net.propose", &mut || out = Some(client.propose(&propose)));
        match out.expect("propose ran") {
            Ok(LockOutcome::Acquired) => {
                finish(log, true, true);
                let view = AvailableView {
                    precise,
                    rows: a.avg_rows,
                    bytes: a.avg_bytes,
                    props: a.props.clone(),
                };
                let report =
                    ReportRequest::new(view, a.normalized, id, at + JOB_SPACING, at + a.ttl)
                        .for_vc(job.vc);
                if traced {
                    log.sent
                        .push((Instant::now(), Sent::Report(report.clone())));
                }
                let mut out = None;
                span("net.report", &mut || {
                    out = Some(client.report(report.clone()))
                });
                let ok = out.expect("report ran").is_ok();
                finish(log, ok, true);
            }
            Ok(LockOutcome::AlreadyMaterialized | LockOutcome::AlreadyLocked) => {
                finish(log, true, false)
            }
            Err(_) => finish(log, false, false),
        }
    }
}

/// Sends `days` from client thread `conn`: its share of each day's jobs,
/// paced at `rate` jobs/s from `start` (or unpaced when `rate` is `None`),
/// with thread 0 running the day-end purge once both threads are done
/// with the day.
#[allow(clippy::too_many_arguments)]
fn client_thread(
    addr: std::net::SocketAddr,
    conn: usize,
    compiled: &[Vec<FdJob>],
    days: std::ops::Range<usize>,
    start: Instant,
    rate: Option<f64>,
    barrier: &Barrier,
    cv: &CloudViews,
    traced: bool,
) -> (ClientLog, Vec<SpanRecord>, u64) {
    let tracer = traced.then(Tracer::new);
    let mut client = NetClient::connect(addr).expect("loopback address resolves");
    let mut log = ClientLog::default();
    let mut snapshots = 0;
    let mut index = 0usize;
    for d in days {
        let day_start = Instant::now();
        let rpcs_before = log.rpcs;
        let day = &compiled[d % compiled.len()];
        for (k, job) in day.iter().enumerate() {
            let global = index + k;
            if global % CONNECTIONS != conn {
                continue;
            }
            let due = match rate {
                Some(r) => {
                    let due = start + Duration::from_secs_f64(global as f64 / r);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    log.late_us
                        .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                    due
                }
                None => Instant::now(),
            };
            run_job(
                &mut client,
                job,
                job.on_day(d, k),
                due,
                tracer.as_ref(),
                &mut log,
            );
        }
        index += day.len();
        // Day end: both connections have sent the day; thread 0 moves the
        // service clock to the next day and purges over the wire.
        barrier.wait();
        if conn == 0 {
            cv.clock
                .advance_to(SimTime::ZERO + DAY.mul_f64((d + 1) as f64));
            let mut ok = false;
            let mut purge = || ok = client.purge().is_ok();
            match &tracer {
                Some(t) => t.span("net.purge", &mut purge),
                None => purge(),
            }
            log.rpcs += 1;
            if ok {
                log.writes_acked += 1;
            } else {
                log.failed += 1;
            }
            snapshots += u64::from(cv.maybe_snapshot());
        }
        barrier.wait();
        log.day_rpcs.push(log.rpcs - rpcs_before);
        if conn == 0 {
            log.day_wall_s.push(day_start.elapsed().as_secs_f64());
        }
    }
    let spans = tracer.map(|t| t.take()).unwrap_or_default();
    (log, spans, snapshots)
}

/// Sizes of the files under `dir`: (all bytes, WAL bytes).
fn dir_bytes(dir: &Path) -> (u64, u64) {
    let mut total = 0;
    let mut wal = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let path = e.path();
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(path);
            } else {
                total += meta.len();
                let name = e.file_name();
                if name.to_string_lossy().contains("wal") {
                    wal += meta.len();
                }
            }
        }
    }
    (total, wal)
}

/// Sends `days` from `CONNECTIONS` client threads, each on a fresh
/// connection to `addr`, paced at `rate` jobs/s or unpaced.
fn run_phase(
    addr: std::net::SocketAddr,
    cv: &CloudViews,
    compiled: &[Vec<FdJob>],
    days: std::ops::Range<usize>,
    rate: Option<f64>,
    traced: bool,
) -> Vec<(ClientLog, Vec<SpanRecord>, u64)> {
    let barrier = Barrier::new(CONNECTIONS);
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let (barrier, days) = (&barrier, days.clone());
                s.spawn(move || {
                    client_thread(addr, conn, compiled, days, start, rate, barrier, cv, traced)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

/// Runs the pass against a fresh durable service under `dir` whose
/// annotations are `selection`, cycling through the `compiled` days.
/// `config`'s days are split over `PASSES` sub-passes, one after another,
/// each a paced phase then an unpaced one on a fresh server.
pub fn run_pass(
    dir: &Path,
    selection: &[SelectedView],
    compiled: &[Vec<FdJob>],
    config: FdConfig,
    traced: bool,
) -> Result<FdStats> {
    assert!(!compiled.is_empty(), "no compiled day to replay");
    let _ = std::fs::remove_dir_all(dir);
    let cv = open_durable(dir)?;
    cv.metadata.load_annotations(selection);
    let paced_days = config.paced_days.div_ceil(PASSES).max(2);
    let capacity_days = config.capacity_days.div_ceil(PASSES).max(2);

    let mut stats = FdStats::default();
    let mut rpc_us = Vec::new();
    let mut late_us = Vec::new();
    let mut pass_p50_us = Vec::new();
    let mut pass_capacity = Vec::new();
    let mut spans = std::collections::BTreeMap::new();
    let mut sent = Vec::new();
    let mut day = 0;
    for _ in 0..PASSES {
        let server = NetServer::spawn(
            Arc::clone(&cv.metadata),
            Arc::clone(&cv.telemetry),
            ServerConfig {
                workers: CONNECTIONS,
                ..ServerConfig::default()
            },
        )?;
        let paced = day..day + paced_days;
        let unpaced = paced.end..paced.end + capacity_days;
        day = unpaced.end;
        let paced_logs = run_phase(
            server.addr(),
            &cv,
            compiled,
            paced,
            Some(config.job_rate),
            traced,
        );
        let capacity_logs = run_phase(server.addr(), &cv, compiled, unpaced, None, traced);
        server.shutdown();

        let mut pass_us = Vec::new();
        for (log, records, snapshots) in paced_logs {
            pass_us.extend_from_slice(&log.rpc_us);
            late_us.extend(log.late_us);
            stats.paced_rpcs += log.rpcs;
            stats.paced_lookups += log.lookups;
            stats.snapshots += snapshots;
            stats.rpcs += log.rpcs;
            stats.writes_acked += log.writes_acked;
            stats.failed += log.failed;
            crate::trace::merge(&mut spans, &summarize(&records));
            sent.extend(log.sent);
        }
        pass_p50_us.push(median(&pass_us));
        rpc_us.extend(pass_us);
        let mut day_rpcs = vec![0u64; capacity_days];
        let mut day_wall_s = Vec::new();
        for (log, _, snapshots) in capacity_logs {
            for (total, n) in day_rpcs.iter_mut().zip(&log.day_rpcs) {
                *total += n;
            }
            day_wall_s.extend(log.day_wall_s);
            stats.snapshots += snapshots;
            stats.rpcs += log.rpcs;
            stats.writes_acked += log.writes_acked;
            stats.failed += log.failed;
        }
        // Median over days of each day's throughput, its purge included.
        let day_rates: Vec<f64> = day_rpcs
            .iter()
            .zip(&day_wall_s)
            .map(|(&n, &s)| n as f64 / s)
            .collect();
        pass_capacity.push(median(&day_rates));
    }
    stats.rpc_us = Samples::new(rpc_us);
    stats.rpc_p50_us = median(&pass_p50_us);
    stats.late_us = Samples::new(late_us);
    // The schedule's span is paced jobs ÷ job rate.
    stats.offered_ops_per_s = ratio(
        stats.paced_rpcs as f64 * config.job_rate,
        stats.paced_lookups as f64,
    );
    stats.capacity_ops_per_s = median(&pass_capacity);
    stats.busy_sheds = cv.telemetry.metrics.counter_value("cv_net_shed_total");

    // Shutdown and cold start: the recovered catalog must match.
    let expected = cv.metadata.fingerprint();
    drop(cv);
    let (disk, wal) = dir_bytes(dir);
    stats.disk_bytes = disk;
    stats.wal_bytes = wal;
    let recover_tracer = Tracer::new();
    let mut recovery = Vec::with_capacity(COLD_STARTS);
    stats.fingerprints_equal = true;
    for _ in 0..COLD_STARTS {
        let t = Instant::now();
        let recovered = recover_tracer.span("store.recover", || open_durable(dir))?;
        recovery.push(t.elapsed().as_secs_f64());
        stats.fingerprints_equal &= recovered.metadata.fingerprint() == expected;
    }
    stats.recovery_s = median(&recovery);
    if traced {
        crate::trace::merge(&mut spans, &summarize(&recover_tracer.take()));
        crate::trace::merge(&mut spans, &replay_in_process(dir, selection, sent)?);
    }
    stats.spans = spans;
    Ok(stats)
}

/// Sends the paced phase's requests, in the order they were sent, to a
/// twin durable service in-process, with a span around each call.
fn replay_in_process(
    dir: &Path,
    selection: &[SelectedView],
    mut sent: Vec<(Instant, Sent)>,
) -> Result<std::collections::BTreeMap<&'static str, SpanTotals>> {
    let twin_dir: PathBuf = dir.with_extension("inproc");
    let _ = std::fs::remove_dir_all(&twin_dir);
    let twin = open_durable(&twin_dir)?;
    twin.metadata.load_annotations(selection);
    let svc: &MetadataService = &twin.metadata;
    sent.sort_by_key(|(t, _)| *t);
    let t = Tracer::new();
    for (_, req) in &sent {
        match req {
            Sent::Lookup(r) => {
                let _ = t.span("inproc.lookup", || svc.lookup(r));
            }
            Sent::Propose(r) => {
                let _ = t.span("inproc.propose", || svc.propose(r));
            }
            Sent::Report(r) => {
                let _ = t.span("inproc.report", || svc.report(r.clone()));
            }
        }
    }
    drop(twin);
    let _ = std::fs::remove_dir_all(&twin_dir);
    Ok(summarize(&t.take()))
}
