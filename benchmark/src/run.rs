//! One run of one workload: set-up, measurement cycles, metrics.
//!
//! A cycle walks every stage once — journey, round, aggregation,
//! campaign — so each timing metric gets one sample per cycle and a slow
//! spell of the machine is spread over all of them instead of landing on
//! one. Cycles repeat for `--seconds`; each metric's raw value is the p10
//! of its samples (see `stats`).
//!
//! Between the stages of every cycle runs the calibration kernel
//! (`probes::calibration_ms`). On the shared two-thread machine this was
//! written on, whole minutes run 20–40 % slow, so not even the p10 of a
//! 20-second run repeats; the kernel slows down with the program, and the
//! ratio of the two p10s does repeat. Every timing is therefore reported
//! at the kernel's reference speed: raw p10 ÷ (kernel p10 ÷ reference).

use crate::check::Tally;
use crate::layers::SpanStats;
use crate::probes;
use crate::spec::{self, EPOCH_PHASE_ROWS};
use crate::stages::Runner;
use crate::stats::{median, summarize, Summary};
use crate::timed::Timed;
use crate::trace::Tracer;
use crate::traced::AggregateTrace;
use crate::world::{self, Shape};
use ew_system::OprfService;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// World builds per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Cycles run and thrown away before measuring (caches fill, the
/// campaign reaches its steady state).
const WARMUP_CYCLES: usize = 2;
/// Fewest measured cycles, however short `--seconds` is.
const MIN_CYCLES: usize = 5;
/// Spans the traced run's buffer holds.
const TRACE_CAPACITY: usize = 1 << 18;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes and a fixed two cycles: checks, no timing.
    pub smoke: bool,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    /// Present for timings: the samples behind `value`.
    pub summary: Option<Summary>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<Measured>,
    /// p10 of the calibration kernel, for `--selfcheck`'s noise flag.
    pub calib_ms: f64,
}

type Samples = BTreeMap<&'static str, Vec<f64>>;

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

fn calibrate(samples: &mut Samples) {
    push(samples, "calib_ms", probes::calibration_ms());
}

/// One undecorated cycle, the calibration kernel between its stages.
fn plain_cycle(runner: &mut Runner, frontend: &OprfService, samples: &mut Samples) {
    let started = Instant::now();
    calibrate(samples);
    let journey = runner.journey(frontend, None);
    push(samples, "enroll_ms", journey.enroll_ms);
    push(samples, "map_ad_ms", journey.map_ad_ms);
    push(samples, "report_build_ms", journey.report_build_ms);
    push(samples, "audit_us", journey.audit_us);
    calibrate(samples);
    push(samples, "round_ms", runner.round(1));
    calibrate(samples);
    let (aggregate_ms, restart_ms) = runner.aggregate();
    push(samples, "aggregate_ms", aggregate_ms);
    push(samples, "shard_restart_ms", restart_ms);
    calibrate(samples);
    push(samples, "campaign_ms", runner.campaign());
    calibrate(samples);
    push(samples, "cycle_ms", started.elapsed().as_secs_f64() * 1e3);
}

/// What the decorated cycles read off the program's counters.
#[derive(Debug, Default)]
struct Counters {
    aggregate: AggregateTrace,
    control_log_depth: u64,
}

/// One decorated cycle: the same stages, the same number of times.
fn traced_cycle(
    runner: &mut Runner,
    frontend: &Timed<'_, OprfService>,
    tracer: &Tracer,
    samples: &mut Samples,
    counters: &mut Counters,
) {
    let started = Instant::now();
    calibrate(samples);
    runner.journey(frontend, Some(tracer));
    calibrate(samples);
    runner.traced_round(tracer);
    calibrate(samples);
    for _ in 0..runner.world.shape.aggregate_reps {
        counters.aggregate = runner.traced_aggregate(tracer);
    }
    calibrate(samples);
    counters.control_log_depth = runner.traced_campaign(tracer);
    calibrate(samples);
    push(
        samples,
        "traced_cycle_ms",
        started.elapsed().as_secs_f64() * 1e3,
    );
}

/// Runs `cycle` until `budget` is spent, at least `at_least` times.
fn cycles_for(budget: Duration, at_least: usize, mut cycle: impl FnMut()) -> usize {
    let started = Instant::now();
    let mut n = 0;
    while n < at_least || started.elapsed() < budget {
        cycle();
        n += 1;
    }
    n
}

fn p10(samples: &Samples, name: &str) -> f64 {
    summarize(&samples[name]).p10
}

/// How much slower than the calibration reference the machine ran:
/// every timing is divided by this.
fn slowdown(samples: &Samples) -> f64 {
    p10(samples, "calib_ms") / probes::CALIBRATION_REFERENCE_MS
}

/// `value` at the reference speed, going by its unit: times shrink by
/// `slowdown`, rates grow by it, counts and ratios stay.
fn at_reference_speed(value: f64, unit: &str, slowdown: f64) -> f64 {
    match unit {
        "s" | "ms" | "us" | "ns" => value / slowdown,
        "MB/s" => value * slowdown,
        _ => value,
    }
}

/// Builds the world `setups` times; returns the last with the median
/// build time at the kernel's reference speed. Set-up is over before the
/// cycles begin, so the run's slowdown says little about it: each build
/// is divided by the mean of the two kernel readings that bracket it.
/// Earlier worlds are dropped before the next is built, so peak memory
/// is one world's.
fn set_up(shape: Shape, seed: u64, setups: usize) -> (Runner, f64) {
    let mut seconds = Vec::with_capacity(setups);
    let mut last = None;
    let mut before = probes::calibration_ms();
    for _ in 0..setups {
        drop(last.take());
        let (world, s) = world::timed_build(shape, seed);
        let after = probes::calibration_ms();
        seconds.push(s / ((before + after) / 2.0 / probes::CALIBRATION_REFERENCE_MS));
        before = after;
        last = Some(world);
    }
    let world = last.expect("at least one set-up");
    (Runner::new(world), median(&seconds))
}

/// The end-to-end run (`--trace 0`).
fn run_plain(opts: &Options, shape: Shape) -> Outcome {
    let mut samples = Samples::new();
    let setups = if opts.smoke { 1 } else { SETUPS };
    let (mut runner, setup_s) = set_up(shape, opts.seed, setups);
    let frontend = runner.world.oprf.clone();
    if !opts.smoke {
        let mut discarded = Samples::new();
        cycles_for(Duration::ZERO, WARMUP_CYCLES, || {
            plain_cycle(&mut runner, &frontend, &mut discarded)
        });
    }
    // The program keeps some state per round it has ever run (finalized
    // views, for one), so memory grows with the cycle count — and a
    // faster program runs more cycles in `--seconds`. Peak memory is read
    // after a fixed amount of work instead: set-up, warm-up and the
    // first [`MIN_CYCLES`] cycles.
    let fixed = if opts.smoke { 2 } else { MIN_CYCLES };
    cycles_for(Duration::ZERO, fixed, || {
        plain_cycle(&mut runner, &frontend, &mut samples)
    });
    let peak_rss_mb = crate::rss::peak_rss_mb().expect("/proc/self/status has VmHWM");
    if !opts.smoke {
        let spent = samples["cycle_ms"].iter().sum::<f64>() / 1e3;
        let rest = Duration::from_secs_f64((opts.seconds - spent).max(0.0));
        cycles_for(rest, 0, || {
            plain_cycle(&mut runner, &frontend, &mut samples)
        });
    }

    let slowdown = slowdown(&samples);
    let mut metrics = vec![Measured {
        name: "setup_s",
        value: setup_s,
        summary: None,
    }];
    for name in spec::TIMED {
        let summary = summarize(&samples[name]).divided_by(slowdown);
        metrics.push(Measured {
            name,
            value: summary.p10,
            summary: Some(summary),
        });
    }
    metrics.push(Measured {
        name: "wire_bytes_per_report",
        value: runner.wire_bytes_per_report(),
        summary: None,
    });
    metrics.push(Measured {
        name: "peak_rss_mb",
        value: peak_rss_mb,
        summary: None,
    });
    metrics.push(Measured {
        name: "ok_share",
        value: runner.tally.ok_share(),
        summary: None,
    });
    Outcome {
        tally: runner.tally,
        metrics,
        calib_ms: p10(&samples, "calib_ms"),
    }
}

/// The layer run (`--trace 1`): undecorated cycles for the baseline,
/// decorated cycles for the spans, the two-thread arm, then the probes.
fn run_traced(opts: &Options, shape: Shape) -> Outcome {
    let mut samples = Samples::new();
    let (mut runner, _) = set_up(shape, opts.seed, 1);
    let frontend = runner.world.oprf.clone();
    let tracer = Tracer::new(TRACE_CAPACITY);
    let timed_frontend = Timed::new(frontend.clone(), &tracer);
    // The clone carries the count of set-up's ingestion with it.
    let served_before = timed_frontend.inner.requests_served();
    let mut counters = Counters::default();
    // A quarter of the run each for the baseline and the decorated
    // cycles; the rest is the probes' (they are count-bound, not
    // time-bound).
    let (budget, at_least) = if opts.smoke {
        (Duration::ZERO, 1)
    } else {
        (Duration::from_secs_f64(opts.seconds / 4.0), 3)
    };
    if !opts.smoke {
        let mut discarded = Samples::new();
        plain_cycle(&mut runner, &frontend, &mut discarded);
    }
    cycles_for(budget, at_least, || {
        plain_cycle(&mut runner, &frontend, &mut samples)
    });
    let journeys = cycles_for(budget, at_least, || {
        traced_cycle(
            &mut runner,
            &timed_frontend,
            &tracer,
            &mut samples,
            &mut counters,
        )
    });

    // threads = 2 against threads = 1, fastest of three each, alternated.
    let arms = if opts.smoke { 1 } else { 3 };
    let (mut one, mut two) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..arms {
        one = one.min(runner.round(1));
        two = two.min(runner.round(2));
    }

    let mut values: BTreeMap<&'static str, f64> =
        probes::run_all(&mut runner).into_iter().collect();
    let spans = tracer.spans();
    let stats = SpanStats::new(&spans);
    let mut set = |name: &'static str, value: f64| {
        values.insert(name, value);
    };

    set(
        "ew-system.oprf_server.requests_served",
        (timed_frontend.inner.requests_served() - served_before) as f64 / journeys as f64,
    );
    set(
        "ew-system.client.report_envelope_ms",
        stats.per_call_ms("round", "client.report_envelope"),
    );
    for (phase, name, self_name) in [
        (
            "phase.open",
            "ew-system.node.phase_open_ms",
            "ew-system.node.phase_open_self_ms",
        ),
        (
            "phase.reports",
            "ew-system.node.phase_reports_ms",
            "ew-system.node.phase_reports_self_ms",
        ),
        (
            "phase.recovery",
            "ew-system.node.phase_recovery_ms",
            "ew-system.node.phase_recovery_self_ms",
        ),
        (
            "phase.finalize",
            "ew-system.node.phase_finalize_ms",
            "ew-system.node.phase_finalize_self_ms",
        ),
    ] {
        set(name, stats.per_stage_ms("round", phase));
        set(self_name, stats.per_stage_self_ms("round", phase));
    }
    set(
        "ew-system.node.bus_send_ms",
        stats.per_stage_ms("round", "bus.send"),
    );
    set(
        "ew-system.node.bus_drain_ms",
        stats.per_stage_ms("round", "bus.drain"),
    );
    set(
        "ew-system.node.bus_envelopes",
        stats.under("round", "bus.send").0 as f64 / stats.stages("round").max(1) as f64,
    );
    set("ew-system.node.t2_speedup", two / one);
    for (span, name) in [
        ("cluster.new", "ew-system.cluster.new_cluster_ms"),
        ("backend.absorb_batch", "ew-system.cluster.absorb_batch_ms"),
        ("backend.on_envelope", "ew-system.cluster.on_envelope_ms"),
        ("backend.finalize", "ew-system.cluster.finalize_ms"),
    ] {
        set(name, stats.per_stage_ms("aggregate", span));
    }
    set(
        "ew-system.cluster.restart_shard_ms",
        stats.per_call_ms("aggregate", "cluster.restart_shard"),
    );
    let replay = &counters.aggregate;
    set("ew-system.cluster.routed", replay.metrics.routed as f64);
    set("ew-system.cluster.replayed", replay.metrics.replayed as f64);
    set("ew-system.cluster.deduped", replay.metrics.deduped as f64);
    set(
        "ew-system.cluster.queue_depth",
        replay.metrics.queue_depth as f64,
    );
    set("ew-system.journal.depth", replay.journal_depth as f64);
    set(
        "ew-system.journal.truncated",
        replay.metrics.truncated as f64,
    );
    let churn = runner.world.campaign.sys.telemetry().churn();
    for (nanos, name) in churn.phase_nanos.iter().zip(EPOCH_PHASE_ROWS) {
        set(name, *nanos as f64 / 1e6 / runner.campaigns.max(1) as f64);
    }
    set(
        "ew-system.coordinator.control_log_depth",
        counters.control_log_depth as f64,
    );
    set(
        "harness.attributed_share",
        stats.attributed_share(&["round", "aggregate"]),
    );
    set(
        "harness.trace_overhead_share",
        p10(&samples, "traced_cycle_ms") / p10(&samples, "cycle_ms") - 1.0,
    );
    let calib_ms = p10(&samples, "calib_ms");
    set("harness.calib_ms", calib_ms);

    // A full span buffer would silently shorten the later rows.
    runner.tally.check(tracer.dropped() == 0);
    let path = opts.out_dir.join(format!("trace-{}.json", shape.name));
    if let Err(e) = tracer.dump_json(shape.name, &path) {
        eprintln!("could not write {}: {e}", path.display());
        runner.tally.check(false);
    }

    let slowdown = slowdown(&samples);
    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let raw = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("no value was measured for {}", m.name));
            Measured {
                name: m.name,
                // The kernel's own row stays as measured.
                value: if m.name == "harness.calib_ms" {
                    raw
                } else {
                    at_reference_speed(raw, m.unit, slowdown)
                },
                summary: None,
            }
        })
        .collect();
    Outcome {
        tally: runner.tally,
        metrics,
        calib_ms,
    }
}

/// Runs the workload as `opts` asks.
pub fn run(opts: &Options) -> Outcome {
    let shape = if opts.smoke {
        opts.shape.smoke()
    } else {
        opts.shape
    };
    if opts.trace {
        run_traced(opts, shape)
    } else {
        run_plain(opts, shape)
    }
}

impl Outcome {
    /// The human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let unit = spec::metric(m.name).map_or("", |s| s.unit);
            out.push_str(&format!("{:<52} {:>14.6} {:<6}", m.name, m.value, unit));
            if let Some(s) = &m.summary {
                out.push_str(&format!(" {}.p50 {:.6}", m.name, s.p50));
                if s.high.0 != "p50" {
                    out.push_str(&format!(" {}.{} {:.6}", m.name, s.high.0, s.high.1));
                }
                out.push_str(&format!(" {}.n {}", m.name, s.n));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "# calibration kernel p10 {:.6} ms: timings are at the speed where it takes {} ms; \
             available_parallelism {}\n",
            self.calib_ms,
            probes::CALIBRATION_REFERENCE_MS,
            std::thread::available_parallelism().map_or(0, usize::from)
        ));
        out
    }

    /// The result line the driver reads: `correct`, `attempted`,
    /// `failed`, `metrics`. `detail` (for `--selfcheck`) adds the medians
    /// and the calibration time; the driver never sees it.
    pub fn json(&self, detail: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let unit = spec::metric(m.name).map_or("", |s| s.unit);
                assert!(m.value.is_finite(), "{} is not a number", m.name);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    m.name, m.value
                )
            })
            .collect();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}",
            self.tally.failed == 0 && self.tally.attempted > 0,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        );
        if detail {
            let medians: Vec<String> = self
                .metrics
                .iter()
                .filter_map(|m| Some(format!("\"{}\": {}", m.name, m.summary.as_ref()?.p50)))
                .collect();
            out.push_str(&format!(
                ", \"calib_ms\": {}, \"p50\": {{{}}}",
                self.calib_ms,
                medians.join(", ")
            ));
        }
        out.push('}');
        out
    }
}
