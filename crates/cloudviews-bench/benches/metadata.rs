//! Microbenchmark: metadata-service operations (paper Section 6.1 / 7.3).
//!
//! The paper reports ~19 ms per lookup against AzureSQL; our in-process
//! service is orders of magnitude faster (that latency is *modeled*, see
//! `MetadataService::lookup_latency`). This bench keeps the in-process cost
//! honest: per-job lookups against a loaded inverted index, and the
//! propose/report lock protocol.

use std::sync::Arc;

use cloudviews::analyzer::SelectedView;
use cloudviews::{LookupRequest, MetadataService, ProposeRequest, ReportRequest};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use scope_common::hash::sip128;
use scope_common::ids::JobId;
use scope_common::intern::Symbol;
use scope_common::telemetry::Telemetry;
use scope_common::time::{SimClock, SimDuration, SimTime};
use scope_engine::optimizer::{Annotation, AvailableView};
use scope_plan::PhysicalProps;

fn selected(i: usize) -> SelectedView {
    SelectedView {
        annotation: Annotation {
            normalized: sip128(format!("norm{i}").as_bytes()),
            props: PhysicalProps::hashed(vec![0], 8),
            ttl: SimDuration::from_secs(86_400),
            avg_cpu: SimDuration::from_secs(10),
            avg_rows: 1_000,
            avg_bytes: 100_000,
        },
        input_tags: vec![Symbol::intern(&format!("in/stream{}.ss", i % 50))],
        utility: SimDuration::from_secs(30),
        frequency: 4,
        precise_last_seen: sip128(format!("precise{i}").as_bytes()),
    }
}

fn bench_metadata(c: &mut Criterion) {
    // Telemetry overhead contract: the instrumented lookup path with an
    // enabled sink must stay within a few percent of a disabled sink (the
    // production opt-out), and a missing sink shows the absolute floor.
    for (label, telemetry) in [
        ("telemetry_on", Some(Telemetry::new())),
        ("telemetry_off", Some(Telemetry::disabled())),
        ("telemetry_none", None),
    ] {
        let mut group = c.benchmark_group(format!("metadata_lookup/{label}"));
        for n_annotations in [10usize, 100, 1_000] {
            let svc = MetadataService::new(Arc::new(SimClock::new()), 5);
            svc.set_telemetry(telemetry.clone());
            let views: Vec<SelectedView> = (0..n_annotations).map(selected).collect();
            svc.load_annotations(&views);
            let tags: Vec<Symbol> = (0..5)
                .map(|i| Symbol::intern(&format!("in/stream{i}.ss")))
                .collect();
            group.bench_with_input(
                BenchmarkId::from_parameter(n_annotations),
                &tags,
                |b, tags| {
                    let mut i = 0u64;
                    b.iter(|| {
                        i += 1;
                        let tags = std::hint::black_box(tags);
                        svc.lookup(&LookupRequest::new(JobId::new(i), tags, SimTime::ZERO))
                            .unwrap()
                    })
                },
            );
        }
        group.finish();
    }

    c.bench_function("metadata_propose_report", |b| {
        let svc = MetadataService::new(Arc::new(SimClock::new()), 5);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let sig = sip128(&i.to_le_bytes());
            let ttl = SimDuration::from_secs(60);
            let lock = svc
                .propose(&ProposeRequest::new(sig, JobId::new(i), ttl, SimTime::ZERO))
                .unwrap();
            std::hint::black_box(lock);
            svc.report(ReportRequest::new(
                AvailableView {
                    precise: sig,
                    rows: 10,
                    bytes: 100,
                    props: PhysicalProps::any(),
                },
                sip128(format!("norm{i}").as_bytes()),
                JobId::new(i),
                SimTime::ZERO,
                SimTime::MAX,
            ))
            .unwrap();
        })
    });
}

criterion_group!(benches, bench_metadata);
criterion_main!(benches);
