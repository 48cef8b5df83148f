//! Benchmarks for the parallel weekly-round pipeline — the client-shard
//! fan-out of ingest and report building — against its one-thread
//! baseline, plus the framed-wire round. Outputs are bit-identical for
//! every thread count (asserted by `tests/parallel_determinism.rs`), so
//! the numbers compare pure scheduling.
//!
//! `ingest_par` runs a full multi-client weekly ingest (25-user slice of
//! the Table 1 world via `WeeklyDriver`) per thread count, fresh system
//! per iteration so the per-client OPRF caches never amortize away the
//! work being measured.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use ew_proto::FaultConfig;
use ew_simnet::{DriverScale, WeeklyDriver};
use ew_system::cluster::RoutingBus;
use ew_system::{EyewnderSystem, SystemConfig};

fn bench_ingest_par(c: &mut Criterion) {
    let driver = WeeklyDriver::new(13, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let mut group = c.benchmark_group("ingest_par");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter_batched(
                || {
                    EyewnderSystem::new(
                        SystemConfig {
                            seed: 13,
                            ..SystemConfig::default()
                        }
                        .with_threads(threads),
                        cohort,
                    )
                },
                |mut sys| {
                    sys.ingest(&scenario, &log);
                    sys
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_round_par(c: &mut Criterion) {
    // The other parallel hot loop: per-client blinding-vector derivation
    // during report building, sharded by `run_round`.
    let driver = WeeklyDriver::new(14, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let mut group = c.benchmark_group("round_par");
    group.sample_size(10);
    for threads in [1usize, 4] {
        let mut sys = EyewnderSystem::new(
            SystemConfig {
                seed: 14,
                ..SystemConfig::default()
            }
            .with_threads(threads),
            cohort,
        );
        sys.ingest(&scenario, &log);
        let mut round = 0u64;
        group.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                round += 1;
                black_box(sys.run_round(round, &[]))
            })
        });
    }
    group.finish();
}

fn bench_round_bus(c: &mut Criterion) {
    // Envelope + framing overhead of the bus round: the same typestate
    // machine drives every transport, so `round_bus_wire` minus the
    // in-proc cluster of one (`round_cluster/round_cluster_1` in the
    // `cluster` bench — the arm that used to be `round_bus_inproc`) is
    // pure serialization/framing/CRC cost: the in-proc bus moves
    // envelopes without touching their bytes.
    let driver = WeeklyDriver::new(15, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let mut group = c.benchmark_group("round_bus");
    group.sample_size(10);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 15,
            ..SystemConfig::default()
        },
        cohort,
    );
    sys.ingest(&scenario, &log);
    let map = sys.cluster_map();
    let mut round = 0u64;
    group.bench_function("round_bus_wire", |b| {
        b.iter(|| {
            round += 1;
            let mut backend = sys.new_cluster(&map);
            let mut bus = RoutingBus::over_wire(map.clone(), Some(FaultConfig::perfect()), None);
            black_box(sys.run_round_on(&mut backend, &mut bus, round, &[]))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ingest_par, bench_round_par, bench_round_bus);
criterion_main!(benches);
