//! One run of one workload: the unit the driver (and this benchmark's own
//! suite mode) invokes as a separate process, so CPU time and peak RSS
//! belong to that workload alone.
//!
//! A timed run (`--trace 0`) sets up five times, then repeats rounds for
//! `--seconds` with no decorator anywhere and reports the end-to-end
//! metrics.  A traced run (`--trace 1`) alternates plain and decorated
//! rounds for a third of `--seconds` — their ratio is the tracing overhead
//! — then does the staged replay, and reports the per-layer metrics.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{self, Values, END_TO_END, PER_LAYER};
use crate::replay;
use crate::stats::{median, percentile, sorted, supported_quantile};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{peak_rss_mib, Checks, Env, Round, Workload, CONCURRENCY};

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What a run reports on its last line.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunReport {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|&(name, value, unit)| {
                            (
                                name.to_string(),
                                Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Where this benchmark writes: Cargo's target directory, which the
/// repo's `.gitignore` already covers.
pub fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("study_bench")
}

/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Failures and facts accumulated over a run's rounds.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    checks: Option<Checks>,
}

impl Tally {
    fn add(&mut self, round: &Round) {
        self.attempted += round.groups;
        self.failed += round.groups_failed;
        for p in &round.problems {
            eprintln!("problem: {p}");
            self.problems.push(p.clone());
        }
        if let Some(c) = round.checks {
            match self.checks {
                // Every round runs the same seeded study: its
                // order-independent digest may not change.
                Some(first) if first.envelope_digest != c.envelope_digest => {
                    self.problems
                        .push("envelope digest changed between rounds".into());
                }
                Some(_) => {}
                None => self.checks = Some(c),
            }
        }
    }

    fn print_checks(&self) {
        if let Some(c) = &self.checks {
            println!("check envelope_digest {:016x}", c.envelope_digest);
            println!("check mean_sum {}", c.mean_sum);
            println!("check variance_sum {}", c.variance_sum);
            println!("check first_order_sum {}", c.first_order_sum);
        }
    }
}

pub fn run(opts: &RunOptions) -> Result<RunReport, String> {
    let scratch = out_dir().join(format!(
        "tmp-{}-{}",
        opts.workload.name(),
        std::process::id()
    ));
    let result = if opts.trace {
        traced_run(opts, &scratch)
    } else {
        timed_run(opts, &scratch)
    };
    // Checkpoints are scratch data whichever way the run ended.
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn timed_run(opts: &RunOptions, scratch: &Path) -> Result<RunReport, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut env = None;
    for i in 0..SETUPS {
        if let Some(previous) = env.take() {
            Env::tear_down(previous);
        }
        let t0 = Instant::now();
        env = Some(Env::set_up(
            opts.workload,
            opts.seed,
            opts.smoke,
            &scratch.join(format!("setup{i}")),
        )?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut env = env.expect("SETUPS > 0");
    env.prepare_reference();

    let mut tally = Tally::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut first_round_rss = 0.0;
    let started = Instant::now();
    // leg, study, leg, study, ..., leg: every study sits between two legs.
    let mut legs = vec![env.no_output_leg()];
    while rounds.is_empty() || started.elapsed().as_secs_f64() < opts.seconds {
        let mut round = env.round(None);
        tally.add(&round);
        if rounds.is_empty() {
            first_round_rss = peak_rss_mib();
        }
        let before = legs[legs.len() - 1];
        legs.push(env.no_output_leg());
        round.no_output_s_per_group = (before + legs[legs.len() - 1]) / 2.0;
        println!(
            "info round {} wall_s {:.4} cpu_s {:.2} no_output_s_per_group {:.4} peak_rss_mib {:.1}",
            rounds.len(),
            round.wall_s,
            round.cpu_s,
            round.no_output_s_per_group,
            peak_rss_mib()
        );
        rounds.push(round);
    }
    env.tear_down();

    let best_leg = legs.iter().copied().fold(f64::INFINITY, f64::min);
    let values = end_to_end_values(&rounds, best_leg, first_round_rss, median(&setups));
    println!(
        "info peak_rss_mib after the last round {:.1}",
        peak_rss_mib()
    );
    println!(
        "info {} seed {} rounds {} studies {} measured_s {:.3}",
        opts.workload.name(),
        opts.seed,
        rounds.len(),
        rounds.iter().map(|r| r.latencies_ms.len()).sum::<usize>(),
        started.elapsed().as_secs_f64()
    );
    tally.print_checks();
    let metrics = metrics::in_table_order(END_TO_END.iter().map(|m| (m.name, m.unit)), &values);
    Ok(report(tally, metrics))
}

/// The end-to-end metrics of a run's rounds.
///
/// The host this was written on changes speed in steps (about 1x, 0.7x,
/// 0.5x) that last from a second to minutes, so a raw time measured in an
/// 18 s run spreads by 25-40 % between runs.  Every round therefore
/// carries its own speedometer — the no-output legs run right before and
/// right after the study, averaged — and each time is first taken
/// *relative to its round's legs* (what `transit_ratio` is), then scaled
/// back to seconds with the fastest leg of the run (`best_leg`): the
/// value at the best host speed the run saw.
/// Between interleaved runs this cut the spread of the wall-clock and
/// CPU metrics from 23-25 % to 11 % in a noisy phase and from 4-8 % to 3 %
/// in a quiet one.  The raw medians are printed as an `info raw` line.
fn end_to_end_values(
    rounds: &[Round],
    best_leg: f64,
    first_round_rss: f64,
    setup_s: f64,
) -> Values {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let transit_ratio = per_round(&|r| r.wall_per_group() / r.no_output_s_per_group);
    let sims_per_group = rounds[0].sims as f64 / rounds[0].groups as f64;
    let latencies = sorted(
        rounds
            .iter()
            .flat_map(|r| {
                r.latencies_ms
                    .iter()
                    .map(|ms| ms / r.no_output_s_per_group * best_leg)
            })
            .collect(),
    );

    let mut values = Values::new();
    values.insert("samples_per_s", sims_per_group / (transit_ratio * best_leg));
    values.insert("transit_ratio", transit_ratio);
    values.insert(
        "cpu_ms_per_sample",
        per_round(&|r| 1e3 * r.cpu_s / r.sims as f64 / r.no_output_s_per_group) * best_leg,
    );
    values.insert(
        "wire_kib_per_sample",
        per_round(&|r| r.wire_bytes as f64 / 1024.0 / r.sims as f64),
    );
    // Peak RSS of a fresh process after one round: later rounds ratchet
    // it up (memory the allocator keeps), which would make the metric a
    // function of how many rounds fit into the run.
    values.insert("peak_rss_mib", first_round_rss);
    values.insert("setup_s", setup_s);
    values.insert("study_latency_p50_ms", percentile(&latencies, 0.5));
    // p90 only where ten samples lie beyond it (the daemon's ~120 studies
    // per run); a run of five studies has no tail to report and falls
    // back to its median.
    values.insert(
        "study_latency_p90_ms",
        percentile(&latencies, supported_quantile(latencies.len(), 0.9)),
    );

    let raw_latencies = sorted(rounds.iter().flat_map(|r| r.latencies_ms.clone()).collect());
    println!(
        "info raw samples_per_s {:.4} cpu_ms_per_sample {:.4} study_latency_p50_ms {:.3} \
         study_latency_p90_ms {:.3} best_no_output_s_per_group {:.4}",
        per_round(&|r| r.sims as f64 / r.wall_s),
        per_round(&|r| 1e3 * r.cpu_s / r.sims as f64),
        percentile(&raw_latencies, 0.5),
        percentile(&raw_latencies, 0.9),
        best_leg
    );
    values
}

fn traced_run(opts: &RunOptions, scratch: &Path) -> Result<RunReport, String> {
    let mut env = Env::set_up(opts.workload, opts.seed, opts.smoke, &scratch.join("setup"))?;
    env.prepare_reference();

    // A third of the budget goes to live rounds, alternating plain and
    // traced so drift hits both alike; the staged replay takes the rest.
    let mut tally = Tally::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut live: Vec<Values> = Vec::new();
    let mut first_spans: Option<Vec<Span>> = None;
    let started = Instant::now();
    while traced.is_empty() || started.elapsed().as_secs_f64() < opts.seconds / 3.0 {
        let round = env.round(None);
        tally.add(&round);
        plain.push(round.wall_per_group());

        let tracer = Tracer::new();
        let round = env.round(Some(&tracer));
        tally.add(&round);
        traced.push(round.wall_per_group());
        let spans = tracer.take_spans();
        live.push(live_metrics(&spans, &tracer, &round));
        first_spans.get_or_insert(spans);
    }

    let mut values = Values::new();
    for name in live[0].keys() {
        values.insert(
            name,
            median(&live.iter().map(|v| v[name]).collect::<Vec<_>>()),
        );
    }
    values.insert("trace.overhead_ratio", median(&traced) / median(&plain));

    let spans = first_spans.expect("at least one traced round");
    let trace_path = out_dir().join(format!("trace-{}.json", opts.workload.name()));
    write_trace(&trace_path, &spans)?;
    println!(
        "info trace {} spans written to {}",
        spans.len(),
        trace_path.display()
    );

    let group_cpu_s = replay::replay(&env.fix, &scratch.join("replay"), &mut values)?;
    env.tear_down();

    // Share of the live group jobs' time that neither the transport spans
    // under them nor the replayed solver, client and protocol stages of
    // one group account for: waiting for a core, mostly.
    let totals = trace::totals_by_name(&spans);
    let exec = totals.get("group.exec").copied().unwrap_or_default();
    let accounted = exec.count as f64 * group_cpu_s * 1e9;
    values.insert(
        "trace.unattributed_frac",
        if exec.total_ns == 0 {
            0.0
        } else {
            (exec.self_ns as f64 - accounted) / exec.total_ns as f64
        },
    );

    print_span_table(&totals);
    let metrics = metrics::in_table_order(PER_LAYER.iter().map(|m| (m.name, m.unit)), &values);
    Ok(report(tally, metrics))
}

fn report(tally: Tally, metrics: Vec<(&'static str, f64, &'static str)>) -> RunReport {
    for &(name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    RunReport {
        correct: tally.problems.is_empty() && tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

fn write_trace(path: &Path, spans: &[Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(path.parent().expect("trace path has a directory")).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    trace::write_chrome_trace(&mut out, spans).map_err(io)?;
    std::io::Write::flush(&mut out).map_err(io)
}

/// The per-layer metrics one traced round yields: counts and times taken
/// at the `Transport` and `Dispatcher` boundaries.
fn live_metrics(spans: &[Span], tracer: &Arc<Tracer>, round: &Round) -> Values {
    let totals = trace::totals_by_name(spans);
    let secs = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let blocked_s = round.link.blocked_nanos as f64 / 1e9;
    let exec_ms = sorted(
        trace::durations_of(spans, "group.exec")
            .iter()
            .map(|ns| ns / 1e6)
            .collect(),
    );
    let queue_ms = sorted(
        trace::dispatch_waits_ns(spans, CONCURRENCY)
            .iter()
            .map(|ns| ns / 1e6)
            .collect(),
    );
    let p = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { percentile(v, q) };

    let mut m = Values::new();
    m.insert("transport.frames", tracer.data_frames() as f64);
    m.insert("transport.payload_bytes", tracer.data_bytes() as f64);
    m.insert("transport.wire_bytes", round.link.wire_bytes as f64);
    m.insert(
        "transport.wire_ratio",
        if round.link.wire_bytes == 0 {
            1.0
        } else {
            round.link.bytes as f64 / round.link.wire_bytes as f64
        },
    );
    // The decorator times whole sends; the product's own link counters
    // say how much of that was spent blocked at the high-water mark.
    m.insert(
        "transport.send_busy_s",
        (secs("transport.send") - blocked_s).max(0.0),
    );
    m.insert("transport.send_blocked_s", blocked_s);
    m.insert("transport.blocked_sends", round.link.blocked_sends as f64);
    m.insert("transport.flush_s", secs("transport.flush"));
    m.insert("transport.connect_s", secs("transport.connect"));
    m.insert("transport.recv_wait_s", secs("transport.recv"));
    m.insert("transport.queue_depth_p90", tracer.depth_percentile(0.9));
    m.insert(
        "server.busy_frac",
        trace::busy_fraction_outside(spans, "transport.recv"),
    );
    m.insert("scheduler.jobs", exec_ms.len() as f64);
    m.insert("scheduler.queue_wait_p50_ms", p(&queue_ms, 0.5));
    m.insert("group.exec_p50_ms", p(&exec_ms, 0.5));
    m.insert("group.exec_p90_ms", p(&exec_ms, 0.9));
    m.insert("trace.spans", spans.len() as f64);
    m
}

/// How to read it: `total` is time inside spans of that name, `self` is
/// what remains after subtracting their child spans.
fn print_span_table(totals: &std::collections::BTreeMap<&'static str, trace::NameTotals>) {
    println!("info span                     count      total_s       self_s");
    for (name, t) in totals {
        println!(
            "info {name:<24} {:>9} {:>12.4} {:>12.4}",
            t.count,
            t.total_ns as f64 / 1e9,
            t.self_ns as f64 / 1e9
        );
    }
}
