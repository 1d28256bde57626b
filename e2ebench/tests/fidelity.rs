//! The traced replay must reproduce `run_job_at` job by job, and its spans
//! must account for the job wall time; the exact counts must repeat across
//! two runs with the same seed.

use std::path::PathBuf;

use cloudviews::JobRunReport;
use e2ebench::frontdoor::FdConfig;
use e2ebench::jobs::{reference, Drive, JobService, Stream, WindowStats};
use e2ebench::metrics::{valid_name, valid_unit, RunResult};
use e2ebench::replay::{Coverage, Replay};
use e2ebench::run::{run, Sizing};
use e2ebench::trace::{summarize, Tracer};

const SEED: u64 = 11;

/// Runs `units` units of `stream` on two twin services, one through
/// `run_job_at` and one through the traced replay, and compares them.
fn replay_matches_service(stream: Stream, units: u64) {
    let refs = reference(stream, SEED, units).unwrap();
    let tracer = Tracer::new();
    let service = JobService::setup(stream, SEED, None).unwrap();
    let replayed = JobService::setup(stream, SEED, Some(&tracer)).unwrap();
    let mut replay = Replay::new(&replayed.cv, &tracer);
    let (mut a_stats, mut b_stats) = (WindowStats::default(), WindowStats::default());
    let mut jobs_compared = 0;
    for u in 1..=units {
        let jobs = service.prepare_unit(u).unwrap();
        assert_eq!(jobs.len(), replayed.prepare_unit(u).unwrap().len());
        let a: Vec<JobRunReport> = service
            .run_unit(u, &jobs, &refs, Drive::Service, &mut a_stats)
            .unwrap();
        let drive = Drive::Traced(&mut replay);
        let b = replayed
            .run_unit(u, &jobs, &refs, drive, &mut b_stats)
            .unwrap();
        assert_eq!(a.len(), jobs.len(), "a service job failed");
        assert_eq!(b.len(), jobs.len(), "a replayed job failed");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.job, y.job);
            assert_eq!(x.output_checksums, y.output_checksums, "job {}", x.job);
            assert_eq!(x.views_built, y.views_built, "job {}", x.job);
            assert_eq!(x.views_reused, y.views_reused, "job {}", x.job);
            assert_eq!(x.latency, y.latency, "job {}", x.job);
            assert_eq!(x.cpu_time, y.cpu_time, "job {}", x.job);
            jobs_compared += 1;
        }
    }
    assert_eq!(a_stats.failed + b_stats.failed, 0);
    let counts = &replay.counts;
    assert!(counts.views_reused > 0, "the window must reuse views");
    assert!(counts.views_built > 0, "the window must build views");
    assert_eq!(counts.lookups, jobs_compared);

    // The replay did the service's own per-job telemetry work too.
    let (ma, mb) = (
        &service.cv.telemetry.metrics,
        &replayed.cv.telemetry.metrics,
    );
    for name in [
        "cv_jobs_total",
        "cv_jobs_reuse_hit_total",
        "cv_jobs_build_total",
        "cv_views_built_total",
        "cv_views_reused_total",
        "cv_sim_stages_total",
        "cv_sim_vertices_total",
        "cv_template_cache_hits_total",
        "cv_template_cache_misses_total",
    ] {
        assert_eq!(ma.counter_value(name), mb.counter_value(name), "{name}");
    }
    for name in ["cv_job_latency_sim_micros", "cv_sim_token_occupancy_pct"] {
        assert_eq!(
            ma.histogram_snapshot(name),
            mb.histogram_snapshot(name),
            "{name}"
        );
    }
    let spans_of = |cv: &cloudviews::CloudViews| -> Vec<_> {
        let t = &cv.telemetry.tracer;
        t.finished()
            .into_iter()
            .map(|s| {
                (
                    s.id,
                    s.parent,
                    s.job,
                    s.name,
                    s.sim_start,
                    s.sim_end,
                    s.outcome,
                )
            })
            .collect()
    };
    assert_eq!(
        spans_of(&service.cv),
        spans_of(&replayed.cv),
        "service spans"
    );

    // The layer spans account for the service's own job wall time.
    let spans = summarize(&tracer.take());
    assert_eq!(spans["job"].count, jobs_compared);
    let coverage = Coverage::of(&spans, &a_stats.job_walls_ms).layer_coverage;
    assert!(coverage >= 0.9, "layer coverage {coverage:.3} below 0.9");
}

#[test]
fn replay_reproduces_recurring_jobs() {
    replay_matches_service(Stream::Recurring, 4);
}

#[test]
fn replay_reproduces_tpcds_jobs() {
    replay_matches_service(Stream::Tpcds, 2);
}

fn state_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn small(stream: Stream) -> Sizing {
    Sizing {
        units: match stream {
            Stream::Recurring => 3,
            Stream::Tpcds => 2,
        },
        frontdoor: FdConfig {
            job_rate: 5_000.0,
            paced_days: 2,
            capacity_days: 2,
        },
    }
}

/// The metric names of one list of `BENCHMARK.json`, in order.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let start = text.find(&format!("\"{list}\": [")).unwrap();
    let body = &text[start..start + text[start..].find(']').unwrap()];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').unwrap()].to_string())
        .collect()
}

fn names(r: &RunResult) -> Vec<String> {
    r.metrics.iter().map(|m| m.name.to_string()).collect()
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .value
}

/// Both kinds of run report exactly the metrics `BENCHMARK.json` declares,
/// under valid names and units, and the exact counts repeat across two
/// runs with the same seed.
#[test]
fn exact_counts_repeat_and_names_are_valid() {
    for stream in [Stream::Recurring, Stream::Tpcds] {
        let dir = state_dir(&format!("counts-{}", stream.name()));
        let e2e: Vec<RunResult> = (0..2)
            .map(|_| run(stream, SEED, small(stream), false, &dir).unwrap())
            .collect();
        let traced: Vec<RunResult> = (0..2)
            .map(|_| run(stream, SEED, small(stream), true, &dir).unwrap())
            .collect();
        for r in e2e.iter().chain(&traced) {
            assert!(r.correct, "{} run incorrect", stream.name());
            assert!(r.attempted > 0);
            for m in &r.metrics {
                assert!(valid_name(m.name), "bad name {}", m.name);
                assert!(valid_unit(m.unit), "bad unit {}", m.unit);
                assert!(m.value.is_finite(), "{} is not finite", m.name);
            }
        }
        assert_eq!(names(&e2e[0]), declared("end_to_end"));
        assert_eq!(names(&traced[0]), declared("per_layer"));
        for name in ["reuse_job_frac", "sim_cpu_saved_frac"] {
            assert_eq!(value(&e2e[0], name), value(&e2e[1], name), "{name}");
            assert!(value(&e2e[0], name) > 0.0, "{name} must not be 0");
        }
        for name in ["metadata.propose_granted_frac", "optimizer.views_reused"] {
            assert_eq!(value(&traced[0], name), value(&traced[1], name), "{name}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
