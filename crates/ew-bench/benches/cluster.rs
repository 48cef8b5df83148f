//! Benchmarks for the multi-backend aggregation cluster: the full
//! weekly round against N backend shards behind the routing bus.
//!
//! `round_cluster_1` is the system's default round — a single backend
//! is a cluster of one — and the baseline `round_bus_wire` (in the
//! `parallel` bench) is read against. `round_cluster_{2,4}` split the
//! cohort's reports over 2 and 4 shard backends; outcomes are
//! bit-identical across all sizes (pinned by `tests/cluster_parity.rs`),
//! so the numbers compare scheduling and merge cost only. On a
//! multi-core runner the shard fan-out in `absorb_batch` runs the
//! backends concurrently; this CI container is single-core, so parity is
//! the expectation here, not speedup.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ew_simnet::{
    CoordinatorCrash, CoordinatorFault, CrashPoint, DriverScale, EpochChurn, RestartPhase,
    ShardRestart, WeeklyDriver,
};
use ew_system::cluster::RoutingBus;
use ew_system::{hist_kind, trace, EyewnderSystem, LogicalClock, SystemConfig};

fn bench_round_cluster(c: &mut Criterion) {
    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let mut group = c.benchmark_group("round_cluster");
    group.sample_size(10);
    for backends in [1usize, 2, 4] {
        let mut sys = EyewnderSystem::new(
            SystemConfig {
                seed: 16,
                ..SystemConfig::default()
            }
            .with_cluster_backends(backends),
            cohort,
        );
        sys.ingest(&scenario, &log);
        let mut round = 0u64;
        group.bench_function(format!("round_cluster_{backends}"), |b| {
            b.iter(|| {
                round += 1;
                black_box(sys.run_round(round, &[]))
            })
        });
    }
    group.finish();
}

/// The flight recorder's price tag on the hot path: `round_cluster_4`
/// re-run with tracing explicitly disabled (the seam's cost is one
/// thread-local check per span site — the acceptance bar is ≤1% against
/// the plain `round_cluster_4`) and with a 4096-event ring enabled
/// (ring writes included — the bar is ≤5%). The traced arm also feeds
/// the round's absorb/phase latency quantiles into the `EW_BENCH_JSON`
/// trajectory via [`ew_bench::record_hist_quantiles`], so the
/// `BENCH_*.json` files carry p50/p90/p99 from here on.
fn bench_round_cluster_tracing(c: &mut Criterion) {
    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let build = || {
        let mut sys = EyewnderSystem::new(
            SystemConfig {
                seed: 16,
                ..SystemConfig::default()
            }
            .with_cluster_backends(4),
            cohort,
        );
        sys.ingest(&scenario, &log);
        sys
    };

    let mut group = c.benchmark_group("round_cluster");
    group.sample_size(10);
    {
        let mut sys = build();
        let mut round = 0u64;
        trace::disable();
        group.bench_function("round_cluster_4_tracing_off", |b| {
            b.iter(|| {
                round += 1;
                black_box(sys.run_round(round, &[]))
            })
        });
    }
    {
        let mut sys = build();
        let mut round = 0u64;
        trace::enable(4096);
        group.bench_function("round_cluster_4_tracing_on", |b| {
            b.iter(|| {
                round += 1;
                black_box(sys.run_round(round, &[]))
            })
        });
        trace::disable();
        let totals = sys.telemetry().totals();
        ew_bench::record_hist_quantiles("round_cluster_4/absorb", &totals.absorb_hist);
        ew_bench::record_hist_quantiles(
            "round_cluster_4/phase_reports",
            totals.hist(hist_kind::PHASE_REPORTS).expect("known kind"),
        );
    }
    group.finish();
}

/// The cold crash-restart drill under the profiler: a 4-shard clustered
/// round in which shard 0 is killed after the report wave and rebuilt
/// from the unified round log (enrollment replica + `Absorbed` replay)
/// before recovery proceeds. Compare against `round_cluster_4`: the gap
/// is the price of one full shard replay — the round log's entire
/// failure-path overhead, measured end to end.
fn bench_round_cluster_restart(c: &mut Criterion) {
    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 25);
    let log = driver.week(0);
    let scenario = driver.scenario().clone();
    let cohort = driver.cohort();

    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 16,
            ..SystemConfig::default()
        }
        .with_cluster_backends(4),
        cohort,
    );
    sys.ingest(&scenario, &log);
    let map = sys.cluster_map();

    let mut group = c.benchmark_group("round_cluster");
    group.sample_size(10);
    let mut round = 0u64;
    group.bench_function("round_cluster_restart", |b| {
        b.iter(|| {
            round += 1;
            let mut backend = sys.new_cluster(&map);
            backend.script_restart(ShardRestart {
                shard: 0,
                phase: RestartPhase::Reports,
            });
            let mut bus = RoutingBus::in_proc(map.clone(), None);
            black_box(sys.run_round_on(&mut backend, &mut bus, round, &[]))
        })
    });
    group.finish();
}

/// The closed-world baseline of the churn campaign:
/// `closed_world_3rounds` drives three plain rounds over a static
/// 20-client cohort with the two-silent recovery load each epoch of
/// `epoch_deadline/campaign_3epochs` carries. Same per-round
/// population, same recovery work; the gap between the two arms is the
/// whole churn subsystem's overhead (admission, warmup, per-epoch shard
/// directory rebuild, incremental blinding re-sync, per-tick
/// checkpoints), and the acceptance bar is ≤10% of this arm.
fn bench_epoch_churn(c: &mut Criterion) {
    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 20);
    let log = driver.week(0);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 16,
            ..SystemConfig::default()
        }
        .with_cluster_backends(2),
        driver.cohort(),
    );
    sys.ingest(driver.scenario(), &log);
    let silent = [0u32, 1];

    let mut group = c.benchmark_group("epoch_churn");
    group.sample_size(10);
    group.bench_function("closed_world_3rounds", |b| {
        b.iter(|| {
            // The campaign restarts its coordinator each iteration
            // and therefore replays rounds 1..=3; cycle the same
            // round numbers here so the cross-round blinding cache
            // sees an identical access pattern in both arms.
            for round in 1..=3u64 {
                black_box(sys.run_round(round, &silent));
            }
        })
    });
    group.finish();
}

/// The epoch coordinator's end-to-end price tag: a three-epoch churn
/// campaign (20-member rosters, ~10% churn: two silent drops replaced
/// by two joins per epoch) through the one campaign driver on a
/// `LogicalClock` with nothing scripted to go wrong. Read against
/// `epoch_churn/closed_world_3rounds`. (The former
/// `epoch_churn/campaign_3epochs` arm ran this identical path.)
fn bench_epoch_deadline(c: &mut Criterion) {
    let spec = |joins: Vec<u32>, leaves: Vec<u32>, drops: Vec<u32>| EpochChurn {
        joins,
        leaves,
        drops,
    };
    let schedule = vec![
        spec((0..20).collect(), vec![], vec![0, 1]),
        spec(vec![20, 21], vec![], vec![2, 3]),
        spec(vec![22, 23], vec![], vec![4, 5]),
    ];

    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 24);
    let log = driver.week(0);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 16,
            ..SystemConfig::default()
        }
        .with_cluster_backends(2),
        driver.cohort(),
    );
    sys.ingest(driver.scenario(), &log);

    let mut group = c.benchmark_group("epoch_deadline");
    group.sample_size(10);
    group.bench_function("campaign_3epochs", |b| {
        b.iter(|| {
            let mut clock = LogicalClock::new();
            black_box(sys.run_epochs_deadline(
                4,
                1,
                &mut clock,
                &schedule,
                &CoordinatorFault::none(),
            ))
        })
    });
    group.finish();
}

/// The coordinator crash-restart drill under the profiler: the same
/// campaign, but the coordinator is destroyed at every epoch's
/// finalize boundary and rebuilt from the control journal's latest
/// checkpoint alone. Compare against `epoch_deadline/campaign_3epochs`:
/// the gap is the full price of three checkpoint restores — the
/// coordinator's entire failure-path overhead, measured end to end.
fn bench_coordinator_restart(c: &mut Criterion) {
    let spec = |joins: Vec<u32>, leaves: Vec<u32>, drops: Vec<u32>| EpochChurn {
        joins,
        leaves,
        drops,
    };
    let schedule = vec![
        spec((0..20).collect(), vec![], vec![0, 1]),
        spec(vec![20, 21], vec![], vec![2, 3]),
        spec(vec![22, 23], vec![], vec![4, 5]),
    ];
    let fault = CoordinatorFault {
        crash: Some(CoordinatorCrash {
            phase: CrashPoint::Finalize,
        }),
        storm: None,
    };

    let driver = WeeklyDriver::new(16, DriverScale::Fraction(20), 24);
    let log = driver.week(0);
    let mut sys = EyewnderSystem::new(
        SystemConfig {
            seed: 16,
            ..SystemConfig::default()
        }
        .with_cluster_backends(2),
        driver.cohort(),
    );
    sys.ingest(driver.scenario(), &log);

    let mut group = c.benchmark_group("coordinator_restart");
    group.sample_size(10);
    group.bench_function("finalize_crash_3epochs", |b| {
        b.iter(|| {
            let mut clock = LogicalClock::new();
            black_box(sys.run_epochs_deadline(4, 1, &mut clock, &schedule, &fault))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_round_cluster,
    bench_round_cluster_tracing,
    bench_round_cluster_restart,
    bench_epoch_churn,
    bench_epoch_deadline,
    bench_coordinator_restart
);
criterion_main!(benches);
