//! Host-wall benchmark of DynaCut on a redis fleet.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload serve|toggle|rollout --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats whole episodes (build, boot, warm up, then a fixed
//! seeded sequence of requests and ops), as many as fill `--seconds` on
//! an unloaded host, keeps each timed step's best time over the
//! episodes, checks every
//! reply and op, and prints one JSON line last on stdout: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. A
//! readable report with each figure's base goes to stderr, and a traced
//! run writes its last traced episode's spans to
//! `.bench_trace/<workload>-seed<N>.json` (Chrome trace-event format).

mod client;
mod metrics;
mod stats;
mod trace;
mod workloads;

use metrics::{Best, Metric, Value};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;
use workloads::{Episode, Workload};

const USAGE: &str =
    "usage: perfbench --workload serve|toggle|rollout --seed N --seconds S --trace 0|1";

/// Episodes every run makes at least, whatever `--seconds` says: a
/// step's best time needs several tries, and a traced run needs two
/// traced episodes to compare their counts.
const MIN_EPISODES: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("{flag} takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident memory of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("reading /proc/self/status: {err}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalogue: &[Metric],
    values: &[Value],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, (metric, value)) in catalogue.iter().zip(values).enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            metric.name, value.value, metric.unit
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let started = Instant::now();
    let mut traced_rec = Recorder::new(true);
    let mut untraced_rec = Recorder::new(false);
    // Untraced episodes, and in a traced run the traced ones.
    let (mut off, mut on) = (Best::default(), Best::default());
    let mut layers: Vec<workloads::Layers> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    let mut peak_rss = 0.0;
    let episodes = args.workload.episodes(args.seconds, MIN_EPISODES);
    for index in 0..episodes {
        // A traced run alternates traced and untraced episodes, so the
        // two req/s figures give the tracing overhead.
        let traced = args.trace && index % 2 == 0;
        let rec = if traced {
            &mut traced_rec
        } else {
            &mut untraced_rec
        };
        let episode: Episode = workloads::episode(args.workload, args.seed, rec);
        // The first episode's peak is one episode from a clean start;
        // later ones would add how the allocator's retained memory
        // drifts from episode to episode.
        if index == 0 && !args.trace {
            peak_rss = peak_rss_mib()?;
        }
        eprintln!(
            "  episode {index}{}: setup {:.4} s, measured {:.1} ms, {} of {} requests, {} of {} ops failed",
            if traced { " (traced)" } else { "" },
            episode.setup_us.iter().sum::<f64>() / 1e6,
            episode.slot_us.iter().sum::<f64>() / 1e3,
            episode.requests.failed,
            episode.requests.attempted,
            episode.ops_failed,
            episode.ops_attempted,
        );
        attempted += episode.requests.attempted + episode.ops_attempted;
        failed += episode.requests.failed + episode.ops_failed;
        if traced { &mut on } else { &mut off }.add(&episode)?;
        layers.extend(episode.layers);
    }
    let mut correct = failed == 0;

    let (catalogue, values) = if args.trace {
        // Two episodes of one seed must agree on every deterministic
        // count, or the counts cannot support a claim.
        let counts: Vec<_> = layers.iter().map(metrics::deterministic_counts).collect();
        if counts.windows(2).any(|pair| pair[0] != pair[1]) {
            eprintln!("deterministic counts differ between episodes of one seed: {counts:?}");
            correct = false;
        }
        write_spans(args, &traced_rec);
        (metrics::PER_LAYER, metrics::per_layer(&layers, &on, &off))
    } else {
        (metrics::END_TO_END, metrics::end_to_end(&off, peak_rss)?)
    };

    eprintln!(
        "{} seed {}: {episodes} episodes in {:.2} s, {attempted} attempted, {failed} failed",
        args.workload.name(),
        args.seed,
        started.elapsed().as_secs_f64()
    );
    for (metric, value) in catalogue.iter().zip(&values) {
        if !stats::valid_name(metric.name) || !stats::valid_unit(metric.unit) {
            return Err(format!(
                "metric {} [{}] breaks the naming rules",
                metric.name, metric.unit
            ));
        }
        if !value.value.is_finite() {
            return Err(format!("{} is not a finite number", metric.name));
        }
        eprintln!(
            "  {:<36} {:>16.4} {:<6} {}",
            metric.name, value.value, metric.unit, value.detail
        );
    }
    Ok(result_line(correct, attempted, failed, catalogue, &values))
}

/// Writes the last traced episode's spans; a failure only warns.
fn write_spans(args: &Args, rec: &Recorder) {
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    if let Err(err) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_chrome_json()))
    {
        eprintln!("could not write {}: {err}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("benchmark failed: {err}");
            ExitCode::FAILURE
        }
    }
}
