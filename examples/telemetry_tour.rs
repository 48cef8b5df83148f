//! Observability tour: run a clustered deadline campaign with the
//! flight recorder on, walk the trace it left behind, read latency
//! quantiles from the telemetry totals, and export a telemetry snapshot
//! in both JSON-lines and Prometheus text.
//!
//! ```text
//! cargo run --release --example telemetry_tour
//! # or, to archive the snapshot:
//! EW_TELEMETRY_JSON=/tmp/telemetry.jsonl cargo run --release --example telemetry_tour
//! ```

use eyewnder::simnet::{
    CoordinatorCrash, CoordinatorFault, CrashPoint, DriverScale, EpochChurn, WeeklyDriver,
};
use eyewnder::system::cluster::RoutingBus;
use eyewnder::system::{
    trace, Coordinator, EpochConfig, EyewnderSystem, LogicalClock, SystemConfig, TraceEventKind,
};

fn main() {
    // A small world: 12 users, 2 backend shards, 3 epochs of churn,
    // plus a scripted coordinator crash so the drill shows up in the
    // trace.
    let driver = WeeklyDriver::new(23, DriverScale::Fraction(40), 12);
    let (scenario, weeks, cohort) = driver.workload(1);
    let mut sys = EyewnderSystem::new(SystemConfig::default().with_cluster_backends(2), cohort);
    sys.ingest(scenario, &weeks[0]);

    let schedule = vec![
        EpochChurn {
            joins: (0..8).collect(),
            leaves: vec![],
            drops: vec![],
        },
        EpochChurn {
            joins: vec![8, 9],
            leaves: vec![1],
            drops: vec![2],
        },
        EpochChurn {
            joins: vec![10, 11],
            leaves: vec![],
            drops: vec![],
        },
    ];
    let fault = CoordinatorFault {
        crash: Some(CoordinatorCrash {
            phase: CrashPoint::Reports,
        }),
        storm: None,
    };
    println!("fault scenario: {}", fault.summary());
    // Report build time is almost all blinding keystream, enrolment
    // almost all many-bases modpow; which kernel instantiations this CPU
    // runs explains a 2-4x gap between hosts.
    println!(
        "blinding keystream tier: {}\nmodpow lane tier: {}\n",
        eyewnder::crypto::keystream::keystream_tier(),
        eyewnder::bigint::lane_tier()
    );

    // 1. Flight recorder on: a bounded ring of structured events.
    trace::enable(8192);
    let map = sys.cluster_map();
    let mut backend = sys.new_cluster(&map);
    let mut bus = RoutingBus::in_proc(map, None);
    let mut coordinator = Coordinator::new(EpochConfig::default().with_min_clients(4));
    let mut clock = LogicalClock::new();
    let outcomes = sys.run_epochs_deadline_on(
        &mut backend,
        &mut bus,
        &mut coordinator,
        &mut clock,
        &schedule,
        &fault,
    );
    let events = trace::drain();
    trace::disable();

    for o in &outcomes {
        println!(
            "epoch {:>2}  round {:>2}  members {:>2}  dropped {:?}  {}",
            o.epoch,
            o.round,
            o.members.len(),
            o.dropped,
            if o.collapsed {
                "collapsed"
            } else {
                "finalized"
            }
        );
    }

    // 2. Walk the trace: show the crash → restart → restore chain and
    // the first round's phase spans, indented by nesting.
    println!("\n--- flight recorder ({} events) ---", events.len());
    let mut depth = 0usize;
    for e in events.iter().take(40) {
        match e.kind {
            TraceEventKind::SpanOpen => {
                println!(
                    "{:>5}  {:indent$}> {} (a={}, b={})",
                    e.seq,
                    "",
                    e.label,
                    e.a,
                    e.b,
                    indent = depth * 2
                );
                depth += 1;
            }
            TraceEventKind::SpanClose => {
                depth = depth.saturating_sub(1);
                println!(
                    "{:>5}  {:indent$}< {}",
                    e.seq,
                    "",
                    e.label,
                    indent = depth * 2
                );
            }
            TraceEventKind::Instant => {
                println!(
                    "{:>5}  {:indent$}* {} (a={}, b={})",
                    e.seq,
                    "",
                    e.label,
                    e.a,
                    e.b,
                    indent = depth * 2
                );
            }
        }
    }
    let crash = events.iter().find(|e| e.label == "coordinator_crash");
    let restore = events.iter().find(|e| e.label == "coordinator_restore");
    if let (Some(crash), Some(restore)) = (crash, restore) {
        println!(
            "\ncrash drill chain: crash at seq {} -> restore at seq {} (parent span {})",
            crash.seq, restore.seq, restore.parent
        );
    }

    // 3. Latency quantiles, read in process from the lifetime totals.
    let totals = sys.telemetry().totals();
    println!("\n--- latency quantiles (nanoseconds, bucket upper bounds, at most 12.5 % high) ---");
    for (name, hist) in totals.hists() {
        if hist.is_empty() {
            continue;
        }
        println!(
            "{:<14} n={:<5} p50={:<12} p90={:<12} p99={}",
            name,
            hist.count(),
            hist.p50(),
            hist.p90(),
            hist.p99()
        );
    }

    // 4. Export: JSON lines (what EW_TELEMETRY_JSON archives — the
    // campaign already appended there if the variable is set) and the
    // Prometheus-style exposition.
    let snapshot = sys.telemetry().snapshot();
    println!("\n--- snapshot, JSON lines (first 6) ---");
    for line in snapshot.to_json_lines("tour").lines().take(6) {
        println!("{line}");
    }
    println!("\n--- snapshot, Prometheus text (first 12 lines) ---");
    for line in snapshot.to_prometheus_text().lines().take(12) {
        println!("{line}");
    }
    if std::env::var_os("EW_TELEMETRY_JSON").is_some() {
        println!("\n(snapshot also appended to $EW_TELEMETRY_JSON)");
    }
}
