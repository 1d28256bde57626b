//! The two job streams and their closed-loop measured window.
//!
//! A *unit* is one recurring instance (`recurring`) or one cycle of the 99
//! TPC-DS queries (`tpcds`). Inputs of a unit are generated before its
//! timer starts; the unit's wall time then covers every service call of
//! the unit, analyzer rounds and purges included.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cloudviews::analyzer::{
    coordination, AnalysisOutcome, AnalyzerConfig, SelectedView, SelectionConstraints,
    SelectionPolicy,
};
use cloudviews::{CloudViews, JobRunReport, RunMode};
use scope_common::ids::JobId;
use scope_common::time::{SimDuration, SimTime};
use scope_common::{Result, ScopeError};
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_workload::dists::LogNormal;
use scope_workload::recurring::{ClusterSpec, RecurringWorkload, WorkloadConfig};
use scope_workload::tpcds::TpcdsWorkload;

use crate::replay::Replay;
use crate::seeds::derive;
use crate::trace::Tracer;

/// TPC-DS scale factor (1.0 is about 40k fact rows).
pub const TPCDS_SCALE: f64 = 1.0;

const DAY: SimDuration = SimDuration::from_secs(86_400);
/// Offset of the first recurring instance the front-door pass replays.
const FRONTDOOR_INSTANCES: u64 = 10_000;

/// Which job stream a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stream {
    /// About 120 recurring templates over small streams: many short jobs,
    /// little reuse.
    Recurring,
    /// The 99 TPC-DS queries at a fixed scale: executor-heavy, much reuse.
    Tpcds,
}

impl Stream {
    pub fn name(self) -> &'static str {
        match self {
            Stream::Recurring => "recurring",
            Stream::Tpcds => "tpcds",
        }
    }
}

/// Seed of the recurring template library. The library is fixed, like
/// TPC-DS's 99 queries; `--seed` picks the instances, and so the data, a
/// run sees (see [`recurring_instance`]).
pub const RECURRING_LIBRARY_SEED: u64 = 0xC0117E;

fn recurring_workload() -> Result<RecurringWorkload> {
    let spec = ClusterSpec {
        num_templates: 120,
        num_vcs: 8,
        num_users: 16,
        num_streams: 12,
        num_fragments: 16,
        ..ClusterSpec::tiny("recurring")
    };
    RecurringWorkload::generate(WorkloadConfig {
        clusters: vec![spec],
        seed: RECURRING_LIBRARY_SEED,
        stream_rows: LogNormal::new(5.5, 0.4, 100.0, 800.0),
    })
}

/// Distinct recurring instances a run cycles through. Unit `u` runs
/// instance `(u - 1) % RECURRING_CYCLE` of the seed's stretch of history:
/// its inputs repeat every 16 simulated days, long after every view built
/// on them has expired and been purged. This caps the inputs held in
/// memory (about 2.5 MB per instance) and the reference run's length.
const RECURRING_CYCLE: u64 = 16;

/// The instance recurring unit `u` runs; unit 0 is the set-up baseline.
/// The seed picks which stretch of the recurring history, and so which
/// input data, a run sees.
fn recurring_instance(seed: u64, u: u64) -> u64 {
    let start = derive(seed, "recurring/instance") % 100_000;
    match u {
        0 => start,
        u => start + 1 + (u - 1) % RECURRING_CYCLE,
    }
}

fn tpcds_workload(seed: u64) -> TpcdsWorkload {
    TpcdsWorkload::new(TPCDS_SCALE, derive(seed, "tpcds"))
}

fn recurring_analyzer() -> AnalyzerConfig {
    AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 10 },
        constraints: SelectionConstraints {
            per_job_cap: Some(1),
            ..Default::default()
        },
        ..Default::default()
    }
}

fn tpcds_analyzer() -> AnalyzerConfig {
    AnalyzerConfig {
        policy: SelectionPolicy::TopKUtility { k: 10 },
        constraints: SelectionConstraints {
            min_cost_ratio: 0.05,
            ..Default::default()
        },
        ..Default::default()
    }
}

enum Source {
    /// The library and the run's seed.
    Recurring(RecurringWorkload, u64),
    Tpcds {
        workload: TpcdsWorkload,
        analysis: Box<AnalysisOutcome>,
    },
}

/// A service primed for the measured window.
pub struct JobService {
    pub cv: CloudViews,
    source: Source,
}

impl JobService {
    /// Builds the service and runs the baseline that fills its workload
    /// repository: recurring instance 0, or the 99 TPC-DS queries followed
    /// by the top-10 analyzer round (inside an `analyzer.round` span when
    /// traced). Both services keep a resident incremental analyzer.
    pub fn setup(stream: Stream, seed: u64, tracer: Option<&Tracer>) -> Result<JobService> {
        let storage = Arc::new(StorageManager::new());
        match stream {
            Stream::Recurring => {
                let workload = recurring_workload()?;
                let base = recurring_instance(seed, 0);
                let cv = CloudViews::builder(storage)
                    .incremental_analyzer(recurring_analyzer())
                    .build();
                workload.register_instance_data(0, base, &cv.storage, 1.0)?;
                cv.run_sequence(&workload.jobs_for_instance(0, base)?, RunMode::Baseline)?;
                Ok(JobService {
                    cv,
                    source: Source::Recurring(workload, seed),
                })
            }
            Stream::Tpcds => {
                let workload = tpcds_workload(seed);
                let cv = CloudViews::builder(storage)
                    .incremental_analyzer(tpcds_analyzer())
                    .build();
                workload.register_data(&cv.storage)?;
                cv.run_sequence(&workload.all_jobs()?, RunMode::Baseline)?;
                let analysis = match tracer {
                    Some(t) => t.span("analyzer.round", || cv.analyze_round())?,
                    None => cv.analyze_round()?,
                };
                Ok(JobService {
                    cv,
                    source: Source::Tpcds {
                        workload,
                        analysis: Box::new(analysis),
                    },
                })
            }
        }
    }

    /// The jobs of unit `u` (1-based) in submission order, with their
    /// inputs registered. Not timed: this is input generation.
    pub fn prepare_unit(&self, u: u64) -> Result<Vec<JobSpec>> {
        match &self.source {
            Source::Recurring(w, seed) => {
                let instance = recurring_instance(*seed, u);
                if u <= RECURRING_CYCLE {
                    w.register_instance_data(0, instance, &self.cv.storage, 1.0)?;
                }
                w.jobs_for_instance(0, instance)
            }
            Source::Tpcds { workload, analysis } => Ok(coordination::apply_order(
                workload.all_jobs()?,
                &analysis.order_hints,
                |j| j.template,
            )),
        }
    }

    /// Whether a traced run replays unit `u` rather than run it through
    /// `run_job_at`. Units alternate, and the recurring instances one
    /// cycle replays run through `run_job_at` in the next, so traced and
    /// untraced units see the same inputs.
    pub fn traced_unit(&self, u: u64) -> bool {
        let cycle = match self.source {
            Source::Recurring(..) => RECURRING_CYCLE,
            Source::Tpcds { .. } => 1,
        };
        ((u - 1) / cycle + (u - 1) % cycle) % 2 == 1
    }

    /// The service calls that open unit `u`: an analyzer round and its
    /// install (recurring), or a purge of the previous cycle's views and a
    /// fresh install of the analysis (tpcds).
    fn begin_unit(&self, u: u64, tracer: Option<&Tracer>) -> Result<()> {
        let cv = &self.cv;
        let span = |name: &'static str, f: &mut dyn FnMut() -> Result<()>| match tracer {
            Some(t) => t.span(name, f),
            None => f(),
        };
        match &self.source {
            Source::Recurring(..) => {
                cv.clock.advance_to(SimTime::ZERO + DAY.mul_f64(u as f64));
                let mut outcome = None;
                span("analyzer.round", &mut || {
                    outcome = Some(cv.analyze_round()?);
                    Ok(())
                })?;
                let outcome = outcome.expect("round ran");
                span("metadata.install", &mut || {
                    cv.install_analysis(&outcome);
                    Ok(())
                })?;
            }
            Source::Tpcds { analysis, .. } => {
                // Every cycle starts with no live view: a week passes, the
                // purge reclaims the previous cycle's views, and the setup
                // analysis is installed again.
                cv.clock.advance(DAY.mul_f64(7.0));
                span("metadata.purge", &mut || {
                    cv.purge_expired();
                    Ok(())
                })?;
                span("metadata.install", &mut || {
                    cv.install_analysis(analysis);
                    Ok(())
                })?;
            }
        }
        Ok(())
    }

    fn end_unit(&self, tracer: Option<&Tracer>) {
        if let Source::Recurring(..) = self.source {
            match tracer {
                Some(t) => t.span("metadata.purge", || self.cv.purge_expired()),
                None => self.cv.purge_expired(),
            };
        }
    }

    /// The front door's annotations: the top 50 of an analysis of
    /// everything the service has recorded, so the pass sends a propose
    /// for most lookups.
    pub fn frontdoor_selection(&self) -> Result<Vec<SelectedView>> {
        let config = AnalyzerConfig {
            policy: SelectionPolicy::TopKUtility { k: 50 },
            ..Default::default()
        };
        Ok(self.cv.analyze(&config)?.selected)
    }

    /// `days` distinct days of jobs for the front-door pass: later
    /// recurring instances than the measured window reaches (nothing
    /// executes them, so their data is never generated), or the TPC-DS
    /// cycle.
    pub fn frontdoor_days(&self, days: usize) -> Result<Vec<Vec<JobSpec>>> {
        (0..days as u64)
            .map(|d| match &self.source {
                Source::Recurring(w, seed) => {
                    w.jobs_for_instance(0, recurring_instance(*seed, 0) + FRONTDOOR_INSTANCES + d)
                }
                Source::Tpcds { .. } => self.prepare_unit(1),
            })
            .collect()
    }
}

/// A measured job's expected outputs and baseline cost.
#[derive(Clone, Debug)]
pub struct Reference {
    pub checksums: HashMap<String, u64>,
    pub baseline_cpu: SimDuration,
}

/// Output checksums and simulated CPU of every job of units `1..=units`
/// in `Baseline` mode, on a twin service that records nothing.
pub fn reference(stream: Stream, seed: u64, units: u64) -> Result<HashMap<JobId, Reference>> {
    // A fresh twin per unit keeps one unit's inputs in memory at a time.
    let twin = || {
        CloudViews::builder(Arc::new(StorageManager::new()))
            .record_runs(false)
            .build()
    };
    let mut refs = HashMap::new();
    let mut record = |twin: &CloudViews, jobs: &[JobSpec]| -> Result<()> {
        for r in twin.run_sequence(jobs, RunMode::Baseline)? {
            let reference = Reference {
                checksums: r.output_checksums,
                baseline_cpu: r.cpu_time,
            };
            refs.insert(r.job, reference);
        }
        Ok(())
    };
    match stream {
        Stream::Recurring => {
            let w = recurring_workload()?;
            for u in 1..=units.min(RECURRING_CYCLE) {
                let twin = twin();
                let instance = recurring_instance(seed, u);
                w.register_instance_data(0, instance, &twin.storage, 1.0)?;
                record(&twin, &w.jobs_for_instance(0, instance)?)?;
            }
        }
        // Every cycle runs the same 99 queries over the same data.
        Stream::Tpcds => {
            let w = tpcds_workload(seed);
            let twin = twin();
            w.register_data(&twin.storage)?;
            record(&twin, &w.all_jobs()?)?;
        }
    }
    Ok(refs)
}

/// What a measured window saw.
#[derive(Clone, Debug, Default)]
pub struct WindowStats {
    /// Per-job wall time, ms.
    pub job_walls_ms: Vec<f64>,
    /// Jobs per second of each unit, analyzer rounds and purges included.
    pub unit_rates: Vec<f64>,
    pub jobs: u64,
    pub reuse_jobs: u64,
    pub failed: u64,
    pub cpu_s: f64,
    pub baseline_cpu_s: f64,
}

impl WindowStats {
    /// Median over units of each unit's job throughput: a host stall
    /// slows one unit instead of the whole figure.
    pub fn jobs_per_s(&self) -> f64 {
        crate::metrics::median(&self.unit_rates)
    }

    pub fn reuse_job_frac(&self) -> f64 {
        crate::metrics::ratio(self.reuse_jobs as f64, self.jobs as f64)
    }

    pub fn sim_cpu_saved_frac(&self) -> f64 {
        1.0 - crate::metrics::ratio(self.cpu_s, self.baseline_cpu_s)
    }
}

/// How a unit's jobs are driven.
pub enum Drive<'a, 't> {
    /// Through `CloudViews::run_job_at`, untraced.
    Service,
    /// Through the traced replay, recording spans and layer counts.
    Traced(&'a mut Replay<'t>),
}

impl JobService {
    /// Runs unit `u` (whose jobs `prepare_unit` returned), checks every
    /// job against its reference, and returns the reports of the jobs that
    /// ran.
    pub fn run_unit(
        &self,
        u: u64,
        jobs: &[JobSpec],
        refs: &HashMap<JobId, Reference>,
        drive: Drive<'_, '_>,
        stats: &mut WindowStats,
    ) -> Result<Vec<JobRunReport>> {
        let mut replay = match drive {
            Drive::Service => None,
            Drive::Traced(r) => Some(r),
        };
        let tracer = replay.as_ref().map(|r| r.tracer);
        let mut reports = Vec::with_capacity(jobs.len());
        let unit_start = Instant::now();
        self.begin_unit(u, tracer)?;
        let mut now = self.cv.clock.now();
        for spec in jobs {
            let reference = refs
                .get(&spec.id)
                .ok_or_else(|| ScopeError::Workload(format!("no reference for job {}", spec.id)))?;
            let t = Instant::now();
            let result = match replay.as_deref_mut() {
                Some(r) => r.run_job(&self.cv, spec, now),
                None => self.cv.run_job_at(spec, RunMode::CloudViews, now),
            };
            stats.job_walls_ms.push(t.elapsed().as_secs_f64() * 1e3);
            stats.jobs += 1;
            stats.baseline_cpu_s += reference.baseline_cpu.as_secs_f64();
            match result {
                Ok(r) => {
                    now = r.started_at + r.latency;
                    stats.cpu_s += r.cpu_time.as_secs_f64();
                    stats.reuse_jobs += u64::from(!r.views_reused.is_empty());
                    if r.output_checksums != reference.checksums {
                        stats.failed += 1;
                    }
                    reports.push(r);
                }
                Err(_) => {
                    stats.failed += 1;
                    // A failed job was charged nothing; count it at its
                    // baseline cost so savings are not overstated.
                    stats.cpu_s += reference.baseline_cpu.as_secs_f64();
                    now = self.cv.clock.now();
                }
            }
        }
        self.end_unit(tracer);
        let unit_s = unit_start.elapsed().as_secs_f64();
        stats.unit_rates.push(jobs.len() as f64 / unit_s);
        Ok(reports)
    }
}
