//! A traced replay of `CloudViews::run_job_at`.
//!
//! It drives one job through the layers' public functions in the order the
//! service's stage pipeline calls them, with a span around each call, so a
//! traced run can attribute job wall time to layers without any span inside
//! the program. It also does the service's own per-job telemetry work (the
//! root and stage spans, the job counters and histograms, the simulation
//! metrics), so the replayed job costs what the service's job costs. It
//! covers the fault-free, unshared path the benchmark runs (in-memory
//! service, no fault plan, no sharing window); the fidelity test checks it
//! against `run_job_at` job by job. Delete it once the program emits these
//! spans.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use cloudviews::api::{LookupRequest, ProposeRequest, ReportRequest};
use cloudviews::{CloudViews, JobFaultReport, JobRunReport, LockOutcome, MetadataService};
use scope_common::hash::Sig128;
use scope_common::ids::{JobId, NodeId};
use scope_common::telemetry::{Counter, Histogram};
use scope_common::time::{SimDuration, SimTime};
use scope_common::{MetricUnit, Result};
use scope_engine::data::multiset_checksum;
use scope_engine::exec::execute_plan;
use scope_engine::job::{materialize_marked_views, JobSpec};
use scope_engine::optimizer::{
    optimize_with_cascade, AvailableView, OptimizerConfig, ViewServices,
};
use scope_engine::repo::JobIdentity;
use scope_engine::sim::{simulate, SimOutcome};
use scope_plan::QueryGraph;
use scope_signature::{SubgraphInfo, SubsumeDescriptor};

use crate::trace::{SpanTotals, Tracer};

/// Work counts of the traced layers, summed over replayed jobs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCounts {
    pub compiles: u64,
    pub template_hits: u64,
    pub lookups: u64,
    pub annotations: u64,
    pub tier2: u64,
    pub proposes: u64,
    pub proposes_granted: u64,
    pub views_reused: u64,
    pub views_marked: u64,
    pub views_built: u64,
    pub view_bytes: u64,
    pub input_rows: u64,
}

/// The optimizer's view oracle, pinned to the job's submission time like
/// the service's own, with spans around the metadata calls it makes.
struct TracedServices<'a> {
    svc: &'a MetadataService,
    now: SimTime,
    tracer: &'a Tracer,
    proposes: Cell<u64>,
    granted: Cell<u64>,
}

impl ViewServices for TracedServices<'_> {
    fn view_available(&self, precise: Sig128) -> Option<AvailableView> {
        self.tracer.span("metadata.view_check", || {
            self.svc.view_available_at(precise, self.now)
        })
    }

    fn propose_materialize(
        &self,
        precise: Sig128,
        _normalized: Sig128,
        job: JobId,
        lock_ttl: SimDuration,
    ) -> bool {
        self.proposes.set(self.proposes.get() + 1);
        let granted = self.tracer.span("metadata.propose", || {
            self.svc
                .propose(&ProposeRequest::new(precise, job, lock_ttl, self.now))
                .is_ok_and(|o| o == LockOutcome::Acquired)
        });
        if granted {
            self.granted.set(self.granted.get() + 1);
        }
        granted
    }
}

/// The counters and histograms the service updates per job, resolved by
/// name from its telemetry registry once, as the service resolves them.
struct ServiceMetrics {
    jobs: Counter,
    jobs_reuse_hit: Counter,
    jobs_build: Counter,
    views_built: Counter,
    views_reused: Counter,
    job_latency: Histogram,
    job_cpu: Histogram,
    job_wall: Histogram,
    stages: Counter,
    vertices: Counter,
    stage_vertices: Histogram,
    token_occupancy: Histogram,
    template_hits: Counter,
    template_misses: Counter,
}

impl ServiceMetrics {
    fn resolve(cv: &CloudViews) -> ServiceMetrics {
        let m = &cv.telemetry.metrics;
        ServiceMetrics {
            jobs: m.counter("cv_jobs_total"),
            jobs_reuse_hit: m.counter("cv_jobs_reuse_hit_total"),
            jobs_build: m.counter("cv_jobs_build_total"),
            views_built: m.counter("cv_views_built_total"),
            views_reused: m.counter("cv_views_reused_total"),
            job_latency: m.histogram("cv_job_latency_sim_micros", MetricUnit::SimMicros),
            job_cpu: m.histogram("cv_job_cpu_sim_micros", MetricUnit::SimMicros),
            job_wall: m.histogram("cv_job_wall_micros", MetricUnit::WallMicros),
            stages: m.counter("cv_sim_stages_total"),
            vertices: m.counter("cv_sim_vertices_total"),
            stage_vertices: m.histogram("cv_sim_stage_vertices", MetricUnit::Count),
            token_occupancy: m.histogram("cv_sim_token_occupancy_pct", MetricUnit::Count),
            template_hits: m.counter("cv_template_cache_hits_total"),
            template_misses: m.counter("cv_template_cache_misses_total"),
        }
    }

    /// The simulation metrics the execute stage records.
    fn record_sim(&self, cv: &CloudViews, sim: &SimOutcome) {
        if !cv.telemetry.is_enabled() {
            return;
        }
        self.stages.add(sim.stages.len() as u64);
        self.vertices.add(sim.vertices as u64);
        for stage in &sim.stages {
            self.stage_vertices.record(stage.dop as u64);
        }
        let capacity = sim
            .latency
            .micros()
            .saturating_mul(cv.cluster.tokens.max(1) as u64);
        if let Some(pct) = sim
            .cpu_time
            .micros()
            .saturating_mul(100)
            .checked_div(capacity)
        {
            self.token_occupancy.record(pct.min(100));
        }
    }

    /// The job metrics the service records when a job succeeds.
    fn record_job(&self, cv: &CloudViews, report: &JobRunReport, wall_start: Instant) {
        self.jobs.inc();
        if !report.views_reused.is_empty() {
            self.jobs_reuse_hit.inc();
        }
        if !report.views_built.is_empty() {
            self.jobs_build.inc();
        }
        self.views_built.add(report.views_built.len() as u64);
        self.views_reused.add(report.views_reused.len() as u64);
        if cv.telemetry.is_enabled() {
            self.job_latency.record(report.latency.micros());
            self.job_cpu.record(report.cpu_time.micros());
            self.job_wall
                .record(wall_start.elapsed().as_micros() as u64);
        }
    }
}

/// Traced replays of jobs on one service: the span recorder, the layers'
/// work counts, and the service's own metric handles.
pub struct Replay<'t> {
    pub tracer: &'t Tracer,
    pub counts: LayerCounts,
    metrics: ServiceMetrics,
}

impl<'t> Replay<'t> {
    pub fn new(cv: &CloudViews, tracer: &'t Tracer) -> Replay<'t> {
        Replay {
            tracer,
            counts: LayerCounts::default(),
            metrics: ServiceMetrics::resolve(cv),
        }
    }

    /// Runs `spec` in CloudViews mode at `start`, as `run_job_at` does,
    /// inside a `job` span with one child span per layer call.
    pub fn run_job(
        &mut self,
        cv: &CloudViews,
        spec: &JobSpec,
        start: SimTime,
    ) -> Result<JobRunReport> {
        let tracer = self.tracer;
        tracer.span("job", || self.run_job_inner(cv, spec, start))
    }

    fn run_job_inner(
        &mut self,
        cv: &CloudViews,
        spec: &JobSpec,
        start: SimTime,
    ) -> Result<JobRunReport> {
        let (t, counts, metrics) = (self.tracer, &mut self.counts, &self.metrics);
        let telemetry = &cv.telemetry.tracer;
        let root = telemetry.root("job", Some(spec.id), start);
        let wall_start = Instant::now();
        let compiled = t.span("signature.compile", || cv.templates.compile(&spec.graph))?;
        counts.compiles += 1;
        counts.template_hits += u64::from(compiled.template_hit);
        if compiled.template_hit {
            metrics.template_hits.inc();
        } else {
            metrics.template_misses.inc();
        }
        cv.clock.advance_to(start);
        let stage = telemetry.child(&root, "metadata_lookup", start);

        // Stage 1: the metadata lookup, with per-root subsumption probes.
        let probes = if cv.subsumption {
            t.span("signature.probes", || {
                subsume_probes(&spec.graph, &compiled.infos)
            })
        } else {
            Vec::new()
        };
        let req = LookupRequest::new(spec.id, &compiled.tags, start).with_probes(probes);
        let resp = t.span("metadata.lookup", || cv.metadata.lookup(&req))?;
        counts.lookups += 1;
        counts.annotations += resp.annotations.len() as u64;
        counts.tier2 += resp.tier2.len() as u64;
        let lookup_latency = resp.latency;
        let mut cursor = start + lookup_latency;
        telemetry.finish(stage, cursor);

        // Stage 2: optimize with the pinned view oracle.
        let stage = telemetry.child(&root, "optimize", cursor);
        let services = TracedServices {
            svc: cv.metadata.as_ref(),
            now: start,
            tracer: t,
            proposes: Cell::new(0),
            granted: Cell::new(0),
        };
        let config = OptimizerConfig {
            default_dop: cv.cluster.default_dop,
            max_materialize_per_job: cv.max_materialize_per_job,
            enable_reuse: true,
            enable_materialize: true,
            enable_subsumption: cv.subsumption,
            ..Default::default()
        };
        let plan = t.span("optimizer.optimize", || {
            optimize_with_cascade(
                &spec.graph,
                &compiled.infos,
                &resp.annotations,
                &resp.tier2,
                &services,
                &config,
                spec.id,
            )
        })?;
        counts.proposes += services.proposes.get();
        counts.proposes_granted += services.granted.get();
        counts.views_reused += plan.reused.len() as u64;
        counts.views_marked += plan.materialize.len() as u64;
        telemetry.finish_with(stage, cursor, (!plan.reused.is_empty()).then_some("reuse"));

        // Stage 3: execute and simulate. Without injected faults a matched
        // view is always readable, so the service's read-fallback never runs.
        let stage = telemetry.child(&root, "execute", cursor);
        let exec = t.span("exec.execute", || {
            execute_plan(&plan.physical, &cv.storage, &cv.cost, start)
        })?;
        counts.input_rows += exec.node_stats.iter().map(|s| s.in_rows).sum::<u64>();
        let sim = t.span("sim.simulate", || {
            simulate(&plan.physical, &exec, &cv.cluster)
        });
        cursor += sim.latency;
        metrics.record_sim(cv, &sim);
        telemetry.finish(stage, cursor);

        // Stage 4: materialize marked views and publish each one.
        let stage = telemetry.child(&root, "publish", cursor);
        let built = t.span("storage.materialize", || {
            materialize_marked_views(&plan, &exec, &sim, &cv.cost, spec.id, start)
        })?;
        let job_end_offset = lookup_latency
            + sim.latency
            + built.iter().map(|b| b.extra_latency).sum::<SimDuration>();
        let mut extra_cpu = SimDuration::ZERO;
        let mut extra_latency = SimDuration::ZERO;
        let mut views_built = Vec::new();
        for b in built {
            extra_cpu += b.extra_cpu;
            extra_latency += b.extra_latency;
            let available_at = if cv.early_materialization {
                start + lookup_latency + b.available_offset
            } else {
                start + job_end_offset
            };
            let view = AvailableView {
                precise: b.file.meta.precise,
                rows: b.file.meta.rows,
                bytes: b.file.meta.bytes,
                props: b.file.props.clone(),
            };
            let (expires_at, normalized, precise) = (
                b.file.meta.expires_at,
                b.file.meta.normalized,
                b.file.meta.precise,
            );
            counts.views_built += 1;
            counts.view_bytes += view.bytes;
            views_built.push(precise);
            t.span("storage.publish", || cv.storage.publish_view(b.file))?;
            let descriptor = t.span("signature.probes", || {
                view_descriptor(&spec.graph, &compiled.infos, precise)
            });
            let report = ReportRequest::new(view, normalized, spec.id, available_at, expires_at)
                .with_descriptor(descriptor)
                .for_vc(spec.vc);
            // A lost report only orphans the view, as in the service.
            let _ = t.span("metadata.report", || cv.metadata.report(report));
        }
        cursor += extra_latency;
        telemetry.finish(stage, cursor);

        // Stage 5: record the run and feed the resident analyzer.
        let stage = telemetry.child(&root, "record", cursor);
        if cv.record_runs {
            let identity = JobIdentity {
                job: spec.id,
                cluster: spec.cluster,
                vc: spec.vc,
                user: spec.user,
                template: spec.template,
                instance: spec.instance,
                submitted_at: start,
            };
            t.span("repo.record", || {
                cv.repo.record_compiled(
                    identity,
                    &compiled.infos,
                    &compiled.tags,
                    &plan,
                    &exec,
                    &sim,
                )
            })?;
            if let Some(analyzer) = &cv.analyzer {
                t.span("analyzer.absorb", || analyzer.absorb(&cv.repo));
            }
        }
        telemetry.finish(stage, cursor);

        // The runner's report (output checksums and row counts), then the
        // release of the attempt's plans and intermediate tables.
        let latency = lookup_latency + sim.latency + extra_latency;
        let report = t.span("runtime.report", || JobRunReport {
            job: spec.id,
            started_at: start,
            latency,
            cpu_time: sim.cpu_time + extra_cpu,
            lookup_latency,
            views_built,
            views_reused: plan.reused.iter().map(|r| r.precise).collect(),
            optimizer: plan.report.clone(),
            output_checksums: exec
                .outputs
                .iter()
                .map(|(name, t)| (name.clone(), multiset_checksum(t)))
                .collect(),
            output_rows: exec
                .outputs
                .iter()
                .map(|(name, t)| (name.clone(), t.num_rows()))
                .collect(),
            faults: JobFaultReport::default(),
        });
        t.span("runtime.release", || drop((compiled, plan, exec, sim)));
        cv.clock.advance_to(start + latency);
        // The service's end-of-job telemetry and its snapshot check.
        t.span("runtime.finish", || {
            metrics.record_job(cv, &report, wall_start);
            let outcome = if !report.views_reused.is_empty() {
                "reuse"
            } else if !report.views_built.is_empty() {
                "build"
            } else {
                "baseline"
            };
            telemetry.finish_with(root, start + latency, Some(outcome));
            cv.maybe_snapshot();
        });
        Ok(report)
    }
}

/// Query-side subsumption probes, built as the service's lookup stage
/// builds them: one descriptor per eligible unary root.
fn subsume_probes(graph: &QueryGraph, infos: &[SubgraphInfo]) -> Vec<SubsumeDescriptor> {
    let precise_of: HashMap<NodeId, Sig128> = infos.iter().map(|i| (i.root, i.precise)).collect();
    infos
        .iter()
        .filter_map(|info| {
            let node = graph.node(info.root).ok()?;
            let child = match node.children.as_slice() {
                [c] => *c,
                _ => return None,
            };
            SubsumeDescriptor::of(graph, info.root, *precise_of.get(&child)?)
        })
        .collect()
}

/// View-side descriptor of a freshly built view, as the publish stage
/// computes it.
fn view_descriptor(
    graph: &QueryGraph,
    infos: &[SubgraphInfo],
    precise: Sig128,
) -> Option<SubsumeDescriptor> {
    let info = infos.iter().find(|i| i.precise == precise)?;
    let node = graph.node(info.root).ok()?;
    let child = match node.children.as_slice() {
        [c] => *c,
        _ => return None,
    };
    let child_precise = infos.iter().find(|i| i.root == child)?.precise;
    SubsumeDescriptor::of(graph, info.root, child_precise)
}

/// How much of the service's job wall time the replay's layer spans
/// account for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coverage {
    /// Mean wall time of a job through `run_job_at`, ms.
    pub job_ms: f64,
    /// `job_ms` minus the mean time per replayed job inside layer spans.
    pub unattributed_ms: f64,
    /// Mean layer time per replayed job ÷ `job_ms`.
    pub layer_coverage: f64,
}

impl Coverage {
    /// Coverage of the replay's `job` spans in `spans` against the
    /// untraced job walls `service_walls_ms` of the same instances.
    pub fn of(spans: &BTreeMap<&'static str, SpanTotals>, service_walls_ms: &[f64]) -> Coverage {
        let job = spans.get("job").copied().unwrap_or_default();
        let layer_ms =
            crate::metrics::ratio((job.total_ns - job.self_ns) as f64 / 1e6, job.count as f64);
        let job_ms =
            crate::metrics::ratio(service_walls_ms.iter().sum(), service_walls_ms.len() as f64);
        Coverage {
            job_ms,
            unattributed_ms: job_ms - layer_ms,
            layer_coverage: crate::metrics::ratio(layer_ms, job_ms),
        }
    }
}
