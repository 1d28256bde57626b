//! In-flight work-sharing benchmark (DESIGN.md §15).
//!
//! Drives [`CloudViews::run_windowed`] over bursty, heavy-tailed arrivals
//! with overlapping templates — the workload shape the daily analyzer loop
//! is structurally too late for (the shared view does not exist when the
//! wave arrives). Two arms over the *identical* arrival trace:
//!
//! 1. **views-only** — `SharingConfig { enabled: false }`: same admission
//!    windows, same pinned submission times, zero coordination. Every job
//!    recomputes the burst's common subgraph.
//! 2. **sharing** — the window coordinator elects one producer per common
//!    subgraph; followers await its early-materialized output.
//!
//! `BENCH_sharing.json` gates the paper-level claims: the coordinator must
//! deliver strictly more reuse hits and strictly lower total simulated
//! cluster CPU than the views-only baseline, with p99 follower wait as the
//! overhead metric and byte-identical outputs as the correctness floor.
//! All gated numbers are simulated and deterministic (arrival jitter and
//! burst sizes come from sip-hashes, not a live RNG); wall-clock totals are
//! context only. `BENCH_QUICK=1` shrinks the trace for CI.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use cloudviews::{CloudViews, JobArrival, PipelineOptions, RunMode, SharingConfig};
use scope_common::ids::{ClusterId, DatasetId, JobId, TemplateId, UserId, VcId};
use scope_common::time::SimDuration;
use scope_engine::data::Table;
use scope_engine::job::JobSpec;
use scope_engine::storage::StorageManager;
use scope_plan::expr::AggFunc;
use scope_plan::{AggExpr, DataType, Expr, PlanBuilder, QueryGraph, Schema, Value};

fn quick() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn schema() -> Schema {
    Schema::from_pairs(&[("k", DataType::Int), ("v", DataType::Int)])
}

fn table(family: usize, rows: usize) -> Table {
    let data = (0..rows)
        .map(|i| {
            let x = scope_common::sip64(format!("sharebench/{family}/{i}").as_bytes());
            vec![
                Value::Int((x % 13) as i64),
                Value::Int(((x >> 8) % 1_000) as i64),
            ]
        })
        .collect();
    Table::single(schema(), data)
}

/// The family's shared subgraph — `scan → filter → aggregate` — plus a
/// per-job tail so the *jobs* differ while the subgraph stays byte-equal.
fn family_job(family: usize, variant: usize, out: &str) -> QueryGraph {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(
        DatasetId::new(family as u64 + 1),
        format!("sharebench/f{family}.ss"),
        schema(),
    );
    let f = b.filter(s, Expr::col(1).ge(Expr::lit((family % 20) as i64)));
    let a = b.aggregate(f, vec![0], vec![AggExpr::new("n", AggFunc::Count, 1)]);
    let tail = if variant % 2 == 1 {
        b.filter(a, Expr::col(1).ge(Expr::lit(variant as i64 % 5)))
    } else {
        a
    };
    b.output(tail, out).build().unwrap()
}

/// A singleton with no shareable overlap (unique filter bound, no burst).
fn singleton_job(family: usize, id: u64) -> QueryGraph {
    let mut b = PlanBuilder::new();
    let s = b.table_scan(
        DatasetId::new(family as u64 + 1),
        format!("sharebench/f{family}.ss"),
        schema(),
    );
    let f = b.filter(s, Expr::col(1).ge(Expr::lit(500 + id as i64)));
    b.output(f, format!("solo-{id}")).build().unwrap()
}

fn spec(id: u64, template: u64, graph: QueryGraph) -> JobSpec {
    JobSpec {
        id: JobId::new(id),
        cluster: ClusterId::new(0),
        vc: VcId::new(0),
        user: UserId::new(0),
        template: TemplateId::new(template),
        instance: 0,
        graph,
    }
}

/// Bursty heavy-tailed arrival trace: each burst lands one family's group
/// of overlapping jobs inside ~a third of a window, with sip-hash jitter
/// and sip-hash burst sizes (2–7 jobs); singletons trickle in between.
fn trace(families: usize, bursts: usize) -> Vec<(JobSpec, SimDuration)> {
    let window = SimDuration::from_secs(30);
    let mut out = Vec::new();
    let mut id = 0u64;
    for b in 0..bursts {
        let f = b % families;
        let base = window.micros() / 2 * b as u64;
        let h = scope_common::sip64(format!("sharebench/burst/{b}").as_bytes());
        let group = 2 + (h % 6) as usize;
        for j in 0..group {
            id += 1;
            let jitter =
                scope_common::sip64(format!("sharebench/jitter/{b}/{j}").as_bytes()) % 10_000_000;
            out.push((
                spec(id, f as u64, family_job(f, j, &format!("q{id}"))),
                SimDuration::from_micros(base + jitter),
            ));
        }
        id += 1;
        out.push((
            spec(id, 1_000 + b as u64, singleton_job(f, id)),
            SimDuration::from_micros(base + 5_000_000),
        ));
    }
    out
}

struct RunNumbers {
    total_cpu: SimDuration,
    follower_reuses: u64,
    wait_p99: SimDuration,
    windows: usize,
    shared_subgraphs: usize,
    wall_micros: u128,
    checksums: Vec<HashMap<String, u64>>,
}

fn run(jobs: &[(JobSpec, SimDuration)], families: usize, rows: usize, enabled: bool) -> RunNumbers {
    let storage = Arc::new(StorageManager::new());
    for f in 0..families {
        storage.put_dataset(DatasetId::new(f as u64 + 1), table(f, rows));
    }
    let cv = CloudViews::builder(storage).build();
    let cfg = SharingConfig {
        enabled,
        ..SharingConfig::default()
    };
    let arrivals = jobs
        .iter()
        .map(|(spec, offset)| JobArrival {
            spec: spec.clone(),
            offset: *offset,
        })
        .collect();
    let wall = Instant::now();
    let out = cv.run_windowed(
        arrivals,
        RunMode::CloudViews,
        PipelineOptions {
            workers: 4,
            max_in_flight: 0,
        },
        &cfg,
    );
    let wall_micros = wall.elapsed().as_micros();
    let reports: Vec<_> = out
        .reports
        .into_iter()
        .map(|r| r.expect("bench jobs are fault-free"))
        .collect();
    RunNumbers {
        total_cpu: reports.iter().map(|r| r.cpu_time).sum(),
        follower_reuses: out.sharing.follower_reuses,
        wait_p99: out.sharing.wait_p99(),
        windows: out.sharing.windows,
        shared_subgraphs: out.sharing.shared_subgraphs,
        wall_micros,
        checksums: reports.into_iter().map(|r| r.output_checksums).collect(),
    }
}

fn main() {
    let quick = quick();
    let families = if quick { 4 } else { 8 };
    let bursts = if quick { 8 } else { 40 };
    let rows = if quick { 400 } else { 2_000 };
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let jobs = trace(families, bursts);
    let n = jobs.len();

    // Serial fault-free ground truth (no windows, no coordination).
    let truth: Vec<_> = {
        let storage = Arc::new(StorageManager::new());
        for f in 0..families {
            storage.put_dataset(DatasetId::new(f as u64 + 1), table(f, rows));
        }
        let cv = CloudViews::builder(storage).build();
        let specs: Vec<_> = jobs.iter().map(|(s, _)| s.clone()).collect();
        cv.run_sequence(&specs, RunMode::Baseline)
            .unwrap()
            .into_iter()
            .map(|r| r.output_checksums)
            .collect()
    };

    let views_only = run(&jobs, families, rows, false);
    let sharing = run(&jobs, families, rows, true);

    let reuse_hit_rate = sharing.follower_reuses as f64 / n as f64;
    let cpu_saved = views_only
        .total_cpu
        .micros()
        .saturating_sub(sharing.total_cpu.micros());
    let cluster_hours_saved = cpu_saved as f64 / 3.6e9;
    let cpu_saved_sim_micros = cpu_saved;
    let results_equivalent = truth == views_only.checksums && truth == sharing.checksums;
    let hits_exceed = sharing.follower_reuses > views_only.follower_reuses;
    let cpu_saved_positive = sharing.total_cpu < views_only.total_cpu;

    println!(
        "sharing/views-only  cpu {:>12} µs  reuses {:>3}  ({} µs wall)",
        views_only.total_cpu.micros(),
        views_only.follower_reuses,
        views_only.wall_micros,
    );
    println!(
        "sharing/coordinated cpu {:>12} µs  reuses {:>3}/{n} jobs  windows {}  subgraphs {}  \
         p99 wait {} µs  ({} µs wall)",
        sharing.total_cpu.micros(),
        sharing.follower_reuses,
        sharing.windows,
        sharing.shared_subgraphs,
        sharing.wait_p99.micros(),
        sharing.wall_micros,
    );
    println!(
        "sharing/saved       {cpu_saved_sim_micros} µs ({cluster_hours_saved:.6} simulated cluster-hours)  \
         equivalent={results_equivalent}"
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"sharing\",\n",
            "  \"quick\": {quick},\n",
            "  \"cores\": {cores},\n",
            "  \"families\": {families},\n",
            "  \"bursts\": {bursts},\n",
            "  \"jobs\": {n},\n",
            "  \"windows\": {windows},\n",
            "  \"shared_subgraphs\": {subgraphs},\n",
            "  \"follower_reuses\": {reuses},\n",
            "  \"views_only_reuses\": {vo_reuses},\n",
            "  \"reuse_hit_rate\": {hit:.3},\n",
            "  \"hits_exceed_views_only\": {hx},\n",
            "  \"views_only_cpu_sim_micros\": {vo_cpu},\n",
            "  \"sharing_cpu_sim_micros\": {sh_cpu},\n",
            "  \"cpu_saved_sim_micros\": {saved_us},\n",
            "  \"cluster_hours_saved\": {saved:.6},\n",
            "  \"cpu_saved_positive\": {cpok},\n",
            "  \"p99_wait_sim_micros\": {wait},\n",
            "  \"results_equivalent\": {eq},\n",
            "  \"views_only_wall_micros\": {vw},\n",
            "  \"sharing_wall_micros\": {sw}\n",
            "}}\n"
        ),
        quick = quick,
        cores = cores,
        families = families,
        bursts = bursts,
        n = n,
        windows = sharing.windows,
        subgraphs = sharing.shared_subgraphs,
        reuses = sharing.follower_reuses,
        vo_reuses = views_only.follower_reuses,
        hit = reuse_hit_rate,
        hx = hits_exceed,
        vo_cpu = views_only.total_cpu.micros(),
        sh_cpu = sharing.total_cpu.micros(),
        saved_us = cpu_saved_sim_micros,
        saved = cluster_hours_saved,
        cpok = cpu_saved_positive,
        wait = sharing.wait_p99.micros(),
        eq = results_equivalent,
        vw = views_only.wall_micros,
        sw = sharing.wall_micros,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sharing.json");
    std::fs::write(path, &json).unwrap();
    println!("sharing: wrote {path}");

    assert!(
        results_equivalent,
        "coordinated outputs diverged from the serial baseline"
    );
    assert!(
        hits_exceed,
        "sharing must deliver strictly more reuse hits than views-only \
         ({} vs {})",
        sharing.follower_reuses, views_only.follower_reuses
    );
    assert!(
        cpu_saved_positive,
        "sharing must lower total simulated cluster CPU ({} vs {} µs)",
        sharing.total_cpu.micros(),
        views_only.total_cpu.micros()
    );
}
