//! `study_bench` — the repo's whole-study benchmark.
//!
//! Two ways to run it (see `README.md`):
//!
//! * **one run** — `--workload NAME --seed N --seconds S --trace 0|1`:
//!   what `BENCHMARK.json`'s command gets from the driver.  Prints every
//!   metric as `metric <name> <value> <unit>` and, as the last line of
//!   standard output, one JSON object with `correct`, `attempted`,
//!   `failed` and `metrics`.
//! * **a suite** — no `--workload`, or any of `--repeat`,
//!   `--check-agreement`: runs the selected workloads round-robin, each
//!   run a child process of this same executable, and reports median,
//!   quartiles and n per metric into `result.json`.

mod json;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS};
use run::RunOptions;
use stats::{worsening, Summary};
use workloads::Workload;

const USAGE: &str = "\
usage: study_bench [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
                   [--repeat K] [--check-agreement] [--smoke]
                   [--print-benchmark-json]

  one run:  --workload NAME (once) without --repeat/--check-agreement
  a suite:  everything else; children are runs of this executable";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
    check_agreement: bool,
    smoke: bool,
    print_benchmark_json: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 2017,
        seconds: None,
        trace: false,
        repeat: None,
        check_agreement: false,
        smoke: false,
        print_benchmark_json: false,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workloads
                    .push(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other:?}: expected 0 or 1")),
                };
            }
            "--repeat" => {
                let k: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k == 0 || k > 100 {
                    return Err(format!("--repeat {k} outside 1..=100"));
                }
                args.repeat = Some(k);
            }
            "--check-agreement" => args.check_agreement = true,
            "--smoke" => args.smoke = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("study_bench: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        return ExitCode::SUCCESS;
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        1.0
    } else {
        f64::from(RUN_SECONDS)
    });
    let single = args.workloads.len() == 1 && args.repeat.is_none() && !args.check_agreement;
    let outcome = if single {
        run::run(&RunOptions {
            workload: args.workloads[0],
            seed: args.seed,
            seconds,
            trace: args.trace,
            smoke: args.smoke,
        })
        .map(|report| {
            // The result line is the last thing on standard output.
            println!("{}", report.to_json().compact());
            report.correct
        })
    } else {
        suite(&args, seconds)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("study_bench: correctness gate failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("study_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------
// Suite mode
// ---------------------------------------------------------------------

/// What the parent keeps of one child run.
struct ChildRun {
    values: BTreeMap<String, f64>,
    checks: BTreeMap<String, String>,
}

/// Runs one workload once in a child process and parses the plain
/// `metric` / `check` lines it prints.
fn child_run(
    workload: Workload,
    args: &Args,
    seconds: f64,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child; its stderr passes through.
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} run failed ({}):\n{text}",
            workload.name(),
            out.status
        ));
    }
    let mut run = ChildRun {
        values: BTreeMap::new(),
        checks: BTreeMap::new(),
    };
    for line in text.lines() {
        let mut words = line.split_whitespace();
        match (words.next(), words.next(), words.next()) {
            (Some("metric"), Some(name), Some(value)) => {
                let v = value.parse().map_err(|e| format!("metric {name}: {e}"))?;
                run.values.insert(name.to_string(), v);
            }
            (Some("check"), Some(name), Some(value)) => {
                run.checks.insert(name.to_string(), value.to_string());
            }
            _ => {}
        }
    }
    Ok(run)
}

/// One set: `repeat` passes over the workloads, round-robin (A B C, A B
/// C, …) so that host drift hits all of them alike.
type Set = BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>;

fn run_set(
    args: &Args,
    workloads: &[Workload],
    seconds: f64,
    repeat: usize,
) -> Result<Set, String> {
    let mut set = Set::new();
    for pass in 0..repeat {
        let mut checks: Vec<(Workload, BTreeMap<String, String>)> = Vec::new();
        for &w in workloads {
            eprintln!("pass {}/{repeat}: {}", pass + 1, w.name());
            let run = child_run(w, args, seconds, false)?;
            let by_metric = set.entry(w.name()).or_default();
            for (name, v) in run.values {
                by_metric.entry(name).or_default().push(v);
            }
            checks.push((w, run.checks));
        }
        cross_check_tubes(&checks)?;
    }
    Ok(set)
}

/// The `tube_*` workloads run one seeded study over three kinds of link:
/// their min/max envelopes must be bit-identical and their sums agree to
/// 1e-9 relative.
fn cross_check_tubes(checks: &[(Workload, BTreeMap<String, String>)]) -> Result<(), String> {
    let tubes: Vec<_> = checks.iter().filter(|(w, _)| w.is_tube()).collect();
    let Some((first_w, first)) = tubes.first() else {
        return Ok(());
    };
    for (w, c) in &tubes[1..] {
        if c.get("envelope_digest") != first.get("envelope_digest") {
            return Err(format!(
                "min/max envelope of {} differs from {}",
                w.name(),
                first_w.name()
            ));
        }
        for sum in ["mean_sum", "variance_sum", "first_order_sum"] {
            let parse = |m: &BTreeMap<String, String>| -> Result<f64, String> {
                m.get(sum)
                    .ok_or(format!("missing check {sum}"))?
                    .parse()
                    .map_err(|e| format!("check {sum}: {e}"))
            };
            let (a, b) = (parse(first)?, parse(c)?);
            if (a - b).abs() > 1e-9 * a.abs().max(1.0) {
                return Err(format!(
                    "{sum} of {} ({b}) differs from {} ({a})",
                    w.name(),
                    first_w.name()
                ));
            }
        }
    }
    Ok(())
}

fn summarize(set: &Set) -> BTreeMap<&'static str, BTreeMap<String, Summary>> {
    set.iter()
        .map(|(w, by_metric)| {
            (
                *w,
                by_metric
                    .iter()
                    .map(|(m, v)| (m.clone(), Summary::of(v)))
                    .collect(),
            )
        })
        .collect()
}

fn print_set(title: &str, set: &Set) {
    println!("== {title}");
    println!(
        "{:<20} {:<22} {:>12} {:>12} {:>12} {:>3} {:>8} {:>6}  unit",
        "workload", "metric", "median", "q1", "q3", "n", "spread", "bound"
    );
    for (w, by_metric) in summarize(set) {
        for m in &END_TO_END {
            let Some(s) = by_metric.get(m.name) else {
                continue;
            };
            // A spread wider than the bound cannot resolve a regression
            // of the size the bound allows: say so instead of "unchanged".
            let verdict = if s.n > 1 && s.spread() > m.bound {
                "  UNRESOLVED"
            } else {
                ""
            };
            println!(
                "{w:<20} {:<22} {:>12.4} {:>12.4} {:>12.4} {:>3} {:>7.2}% {:>5.0}%  {}{verdict}",
                m.name,
                s.median,
                s.q1,
                s.q3,
                s.n,
                100.0 * s.spread(),
                100.0 * m.bound,
                m.unit
            );
        }
    }
}

fn set_json(set: &Set) -> Json {
    Json::Obj(
        set.iter()
            .map(|(w, by_metric)| {
                let metrics = END_TO_END
                    .iter()
                    .filter_map(|m| {
                        let values = by_metric.get(m.name)?;
                        let s = Summary::of(values);
                        Some((
                            m.name.to_string(),
                            Json::obj([
                                ("unit", Json::str(m.unit)),
                                ("median", Json::Num(s.median)),
                                ("q1", Json::Num(s.q1)),
                                ("q3", Json::Num(s.q3)),
                                ("n", Json::Int(s.n as i64)),
                                ("spread", Json::Num(s.spread())),
                                ("bound", Json::Num(m.bound)),
                                (
                                    "values",
                                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                                ),
                            ]),
                        ))
                    })
                    .collect();
                (w.to_string(), Json::Obj(metrics))
            })
            .collect(),
    )
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_json() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        (
            "git_commit",
            Json::str(first_line_of("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(first_line_of("rustc", &["--version"]))),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(1, usize::from) as i64),
        ),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel)),
    ])
}

fn suite(args: &Args, seconds: f64) -> Result<bool, String> {
    let workloads: Vec<Workload> = if args.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        args.workloads.clone()
    };
    let repeat = args.repeat.unwrap_or(1);

    let first = run_set(args, &workloads, seconds, repeat)?;
    print_set("end-to-end metrics", &first);
    let mut result = vec![
        ("benchmark".to_string(), Json::str("study_bench")),
        ("seed".to_string(), Json::Int(args.seed as i64)),
        ("seconds".to_string(), Json::Num(seconds)),
        ("repeat".to_string(), Json::Int(repeat as i64)),
        ("smoke".to_string(), Json::Bool(args.smoke)),
        // This benchmark defines the measurement; it claims no gain.
        ("claim".to_string(), Json::Null),
        ("host".to_string(), host_json()),
        ("end_to_end".to_string(), set_json(&first)),
    ];

    let mut agreed = true;
    if args.check_agreement {
        let second = run_set(args, &workloads, seconds, repeat)?;
        print_set("end-to-end metrics, second set", &second);
        println!("== agreement of the two sets (same commit, same seed)");
        let (a, b) = (summarize(&first), summarize(&second));
        let mut rows = Vec::new();
        for (w, by_metric) in &a {
            for m in &END_TO_END {
                let (Some(x), Some(y)) = (by_metric.get(m.name), b[w].get(m.name)) else {
                    continue;
                };
                let worse = worsening(x.median, y.median, m.higher_is_better);
                let ok = worse.abs() <= m.bound;
                agreed &= ok;
                println!(
                    "{w:<20} {:<22} {:>12.4} {:>12.4} {:>+7.2}% (bound {:.0}%) {}",
                    m.name,
                    x.median,
                    y.median,
                    100.0 * worse,
                    100.0 * m.bound,
                    if ok { "ok" } else { "DISAGREE" }
                );
                rows.push(Json::obj([
                    ("workload", Json::str(*w)),
                    ("metric", Json::str(m.name)),
                    ("first", Json::Num(x.median)),
                    ("second", Json::Num(y.median)),
                    ("worsening", Json::Num(worse)),
                    ("bound", Json::Num(m.bound)),
                    ("ok", Json::Bool(ok)),
                ]));
            }
        }
        result.push(("end_to_end_second".to_string(), set_json(&second)));
        result.push(("agreement".to_string(), Json::Arr(rows)));
    }

    if args.trace {
        let mut layers = Vec::new();
        for &w in &workloads {
            eprintln!("traced run: {}", w.name());
            let run = child_run(w, args, seconds, true)?;
            println!("== per-layer metrics, {} (traced run)", w.name());
            println!(
                "{:<32} {:>16} {:<8} {:<7} should move / on",
                "metric", "value", "unit", "source"
            );
            let mut obj = Vec::new();
            for m in &PER_LAYER {
                let v = *run.values.get(m.name).ok_or(format!(
                    "traced {} run printed no {}",
                    w.name(),
                    m.name
                ))?;
                println!(
                    "{:<32} {:>16.4} {:<8} {:<7} {} / {}",
                    m.name, v, m.unit, m.source, m.moves, m.on
                );
                obj.push((m.name.to_string(), Json::Num(v)));
            }
            layers.push((w.name().to_string(), Json::Obj(obj)));
        }
        result.push(("per_layer".to_string(), Json::Obj(layers)));
    }

    let path = run::out_dir().join("result.json");
    std::fs::create_dir_all(run::out_dir())
        .and_then(|()| std::fs::write(&path, Json::Obj(result).pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if !agreed {
        eprintln!("study_bench: the two sets disagree beyond a metric's bound");
    }
    Ok(agreed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse(&[
            "--workload",
            "tube_tcp",
            "--seed",
            "42",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workloads, vec![Workload::TubeTcp]);
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(12.0), true));
        assert!(!a.smoke && a.repeat.is_none() && !a.check_agreement);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--repeat", "0"],
            &["--frobnicate"],
            &["--seed"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn tube_cross_check_compares_digest_and_sums() {
        let checks = |digest: &str, mean: &str| -> BTreeMap<String, String> {
            [
                ("envelope_digest", digest),
                ("mean_sum", mean),
                ("variance_sum", "2.0"),
                ("first_order_sum", "3.0"),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
        };
        let ok = vec![
            (Workload::TubeInproc, checks("ab", "1.0")),
            (Workload::ShardedReduce, checks("zz", "9.0")),
            (Workload::TubeTcp, checks("ab", "1.0000000000001")),
        ];
        cross_check_tubes(&ok).expect("agree");
        let digest = vec![
            (Workload::TubeInproc, checks("ab", "1.0")),
            (Workload::TubeTcp, checks("ac", "1.0")),
        ];
        assert!(cross_check_tubes(&digest).is_err());
        let sums = vec![
            (Workload::TubeInproc, checks("ab", "1.0")),
            (Workload::TubeTcp, checks("ab", "1.001")),
        ];
        assert!(cross_check_tubes(&sums).is_err());
    }
}
