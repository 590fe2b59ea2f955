//! The metric catalogue `BENCHMARK.json` declares, and the reduction of
//! a run's episodes to those metrics.

use crate::stats::{self, Ratio};
use crate::workloads::{Counters, Episode, Layers};

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Reported with tracing off.
pub const END_TO_END: &[Metric] = &[
    m("req_per_s", "1/s"),
    m("req_p50_us", "us"),
    m("req_p95_us", "us"),
    m("op_p50_us", "us"),
    m("op_p90_us", "us"),
    m("setup_s", "s"),
    m("peak_rss_mib", "MiB"),
];

/// Reported by the traced run.
pub const PER_LAYER: &[Metric] = &[
    m("vm.run_for_us_per_req", "us"),
    m("vm.ns_per_insn", "ns"),
    m("vm.client_us_per_req", "us"),
    m("vm.insns_per_req", "count"),
    m("vm.bcache.hit_ratio", "ratio"),
    m("vm.bcache.misses_per_req", "count"),
    m("vm.bcache.invalidations_per_op", "count"),
    m("vm.bcache.version_swaps_per_op", "count"),
    m("vm.sched.quanta_per_req", "count"),
    m("vm.sched.wakeups_per_req", "count"),
    m("vm.sched.preemptions_per_req", "count"),
    m("vm.sched.idle_ns_per_req", "ns"),
    m("criu.dump_us", "us"),
    m("criu.dump_bytes_per_us", "B/us"),
    m("criu.restore_prepare_us", "us"),
    m("criu.restore_commit_us", "us"),
    m("criu.pre_dump_us", "us"),
    m("criu.baseline_store_us", "us"),
    m("criu.store_unique_bytes", "B"),
    m("criu.store_dedup_ratio", "ratio"),
    m("criu.frozen_bytes_per_op", "B"),
    m("criu.image_bytes_per_op", "B"),
    m("criu.restore_copied_bytes_per_op", "B"),
    m("core.freeze_us", "us"),
    m("core.image_edit_us", "us"),
    m("core.inject_us", "us"),
    m("core.freeze_window_us", "us"),
    m("core.promote_window_us", "us"),
    m("core.promote_windows_sum_us", "us"),
    m("core.engine_other_us", "us"),
    m("core.modules_per_proc", "count"),
    m("trace.req_per_s_on", "1/s"),
    m("trace.req_per_s_off", "1/s"),
    m("trace.overhead_ratio", "ratio"),
];

/// A reduced metric: its value plus how it was obtained (a ratio's
/// base, a percentile's sample count), for the human-readable report.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    pub detail: String,
}

fn plain(value: f64) -> Value {
    Value {
        value,
        detail: String::new(),
    }
}

fn ratio(ratio: Ratio) -> Value {
    Value {
        value: ratio.value(),
        detail: ratio.to_string(),
    }
}

/// The median of `samples`, 0 when the layer did no such work.
fn median_or_zero(samples: &[f64]) -> Value {
    Value {
        value: stats::median(samples).unwrap_or(0.0),
        detail: format!("median of {}", samples.len()),
    }
}

/// Percentile of `samples`; an error when the tail is too thin.
fn tail(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    stats::percentile(&sorted, q).ok_or_else(|| {
        format!(
            "{what}: {} samples leave {} beyond p{}, need {}",
            sorted.len(),
            stats::beyond(sorted.len(), q),
            q * 100.0,
            stats::MIN_BEYOND
        )
    })
}

/// What an episode did: requests completed, then the number of
/// requests sent, ops, measured steps and set-up steps.
type Shape = (u64, usize, usize, usize, usize);

fn shape(episode: &Episode) -> Shape {
    (
        episode.completed,
        episode.requests.latencies_us.len(),
        episode.op_us.len(),
        episode.slot_us.len(),
        episode.setup_us.len(),
    )
}

/// The best time of every step over a run's episodes.
///
/// Every episode of one seed repeats the same sequence of steps: request
/// `i`, op `k` and batch `j` are the same work each time. Co-tenants on
/// the host only ever add time to a step, and they come and go over
/// seconds, so a step's shortest time over many episodes is its cost on
/// an unloaded host. A mean or median of whole episodes would instead
/// follow how busy the host was while the run lasted.
#[derive(Debug, Default, Clone)]
pub struct Best {
    /// Episodes folded in.
    episodes: usize,
    /// The shape every episode must repeat.
    shape: Option<Shape>,
    /// Per request, by send order (NaN while no episode served it).
    latencies_us: Vec<f64>,
    /// Per op.
    op_us: Vec<f64>,
    /// Per step of the measured phase: request batches and ops.
    slot_us: Vec<f64>,
    /// Per set-up step.
    setup_us: Vec<f64>,
}

/// Folds `samples` into the element-wise minimum `best`. `f64::min`
/// skips NaN, so a failed sample never wins.
fn fold_min(best: &mut Vec<f64>, samples: &[f64]) {
    if best.is_empty() {
        best.extend_from_slice(samples);
    } else {
        for (best, &sample) in best.iter_mut().zip(samples) {
            *best = best.min(sample);
        }
    }
}

impl Best {
    /// Folds in one episode.
    ///
    /// # Errors
    ///
    /// Fails when the episode did not repeat the shape of the ones
    /// before it: their times would not be comparable.
    pub fn add(&mut self, episode: &Episode) -> Result<(), String> {
        let first = *self.shape.get_or_insert(shape(episode));
        if first != shape(episode) {
            return Err(format!(
                "episode {} did {:?} (completed, sent, ops, steps, set-up steps), the first {first:?}",
                self.episodes,
                shape(episode)
            ));
        }
        fold_min(&mut self.latencies_us, &episode.requests.latencies_us);
        fold_min(&mut self.op_us, &episode.op_us);
        fold_min(&mut self.slot_us, &episode.slot_us);
        fold_min(&mut self.setup_us, &episode.setup_us);
        self.episodes += 1;
        Ok(())
    }

    /// Requests completed per second of the measured phase, its steps
    /// each at their best time.
    pub fn req_per_s(&self) -> Ratio {
        let completed = self.shape.map_or(0, |shape| shape.0);
        Ratio::new(completed as f64, self.slot_us.iter().sum::<f64>() / 1e6)
    }
}

/// The end-to-end metrics of a run's untraced episodes.
///
/// # Errors
///
/// Fails when a percentile has fewer than ten samples beyond it.
pub fn end_to_end(best: &Best, peak_rss_mib: f64) -> Result<Vec<Value>, String> {
    let served: Vec<f64> = best
        .latencies_us
        .iter()
        .copied()
        .filter(|v| !v.is_nan())
        .collect();
    let over = format!("bests over {} episodes", best.episodes);
    let percentile = |samples: &[f64], q: f64, name: &str, per: &str| -> Result<Value, String> {
        Ok(Value {
            value: tail(samples, q, name)?,
            detail: format!("of {} per-{per} {over}", samples.len()),
        })
    };
    let rate = best.req_per_s();
    Ok(vec![
        Value {
            value: rate.value(),
            detail: format!("{rate}: sum of {} step {over}", best.slot_us.len()),
        },
        percentile(&served, 0.5, "req_p50_us", "request")?,
        percentile(&served, 0.95, "req_p95_us", "request")?,
        percentile(&best.op_us, 0.5, "op_p50_us", "op")?,
        percentile(&best.op_us, 0.9, "op_p90_us", "op")?,
        Value {
            value: best.setup_us.iter().sum::<f64>() / 1e6,
            detail: format!("sum of {} set-up step {over}", best.setup_us.len()),
        },
        plain(peak_rss_mib),
    ])
}

/// Sums the traced episodes' layer figures.
fn combine(layers: &[Layers]) -> Layers {
    let mut all = Layers::default();
    for layer in layers {
        all.requests += layer.requests;
        all.ops += layer.ops;
        all.run_for_ns += layer.run_for_ns;
        all.client_ns += layer.client_ns;
        all.serve = all.serve.plus(layer.serve);
        all.all = all.all.plus(layer.all);
        for (name, samples) in &layer.per_op_us {
            all.per_op_us.entry(name).or_default().extend(samples);
        }
        all.promote_windows_us.extend(&layer.promote_windows_us);
        all.frozen_bytes += layer.frozen_bytes;
        all.image_bytes += layer.image_bytes;
        all.restore_copied_bytes += layer.restore_copied_bytes;
        all.dump_ns += layer.dump_ns;
        all.modules_per_proc.extend(&layer.modules_per_proc);
        // The store is the episode's final state, identical per episode.
        all.store_unique_bytes = layer.store_unique_bytes;
        all.store_logical_bytes = layer.store_logical_bytes;
    }
    all
}

/// The counts that must repeat exactly for one seed: instructions and
/// requests of the measured phase, and the per-op byte counts and
/// module counts.
pub fn deterministic_counts(layers: &Layers) -> (u64, u64, u64, u64, u64, Vec<u64>) {
    (
        layers.serve.insns,
        layers.requests,
        layers.frozen_bytes,
        layers.image_bytes,
        layers.restore_copied_bytes,
        layers
            .modules_per_proc
            .iter()
            .map(|m| m.to_bits())
            .collect(),
    )
}

/// The per-layer metrics of the traced episodes, plus the tracing
/// overhead: the req/s of the traced episodes (`on`) against that of
/// the untraced ones (`off`).
pub fn per_layer(layers: &[Layers], on: &Best, off: &Best) -> Vec<Value> {
    let l = combine(layers);
    let reqs = l.requests as f64;
    let ops = l.ops as f64;
    let per_req = |n: u64| ratio(Ratio::new(n as f64, reqs));
    let per_op = |n: u64| ratio(Ratio::new(n as f64, ops));
    let per_op_us =
        |name: &str| median_or_zero(l.per_op_us.get(name).map_or(&[][..], Vec::as_slice));
    let Counters {
        insns,
        bcache_hits,
        bcache_misses,
        quanta,
        wakeups,
        preemptions,
        idle_ns,
        ..
    } = l.serve;
    vec![
        ratio(Ratio::new(l.run_for_ns as f64 / 1e3, reqs)),
        ratio(Ratio::new(l.run_for_ns as f64, insns as f64)),
        ratio(Ratio::new(l.client_ns as f64 / 1e3, reqs)),
        per_req(insns),
        ratio(Ratio::new(
            bcache_hits as f64,
            (bcache_hits + bcache_misses) as f64,
        )),
        per_req(bcache_misses),
        per_op(l.all.bcache_invalidations),
        per_op(l.all.bcache_version_swaps),
        per_req(quanta),
        per_req(wakeups),
        per_req(preemptions),
        per_req(idle_ns),
        per_op_us("criu.dump"),
        ratio(Ratio::new(l.image_bytes as f64, l.dump_ns as f64 / 1e3)),
        per_op_us("criu.restore_prepare"),
        per_op_us("criu.restore_commit"),
        per_op_us("criu.pre_dump"),
        per_op_us("criu.baseline_store"),
        plain(l.store_unique_bytes as f64),
        ratio(Ratio::new(
            l.store_logical_bytes as f64,
            l.store_unique_bytes as f64,
        )),
        per_op(l.frozen_bytes),
        per_op(l.image_bytes),
        per_op(l.restore_copied_bytes),
        per_op_us("core.freeze"),
        per_op_us("core.image_edit"),
        per_op_us("core.inject"),
        per_op_us("core.freeze_window"),
        median_or_zero(&l.promote_windows_us),
        per_op_us("core.promote_windows_sum"),
        per_op_us("core.engine_other"),
        ratio(Ratio::new(
            l.modules_per_proc.iter().fold(0.0, |sum, m| sum + m),
            l.modules_per_proc.len() as f64,
        )),
        ratio(on.req_per_s()),
        ratio(off.req_per_s()),
        ratio(Ratio::new(off.req_per_s().value(), on.req_per_s().value())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            let declared = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\"",
                metric.name, metric.unit
            );
            assert!(
                json.contains(&declared),
                "{declared} missing from BENCHMARK.json"
            );
        }
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn names_and_units_follow_the_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for metric in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(metric.name), "{}", metric.name);
            assert!(stats::valid_unit(metric.unit), "{}", metric.unit);
            assert!(seen.insert(metric.name), "{} twice", metric.name);
        }
    }

    #[test]
    fn thin_tails_are_refused() {
        let ops: Vec<f64> = (0..99).map(f64::from).collect();
        assert!(tail(&ops, 0.9, "op_p90_us")
            .unwrap_err()
            .contains("need 10"));
        let ops: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&ops, 0.9, "op_p90_us").unwrap(), 89.0);
    }

    fn episode(setup_us: &[f64], latencies_us: &[f64], op_us: &[f64], slot_us: &[f64]) -> Episode {
        let mut episode = Episode {
            setup_us: setup_us.to_vec(),
            completed: latencies_us.iter().filter(|v| !v.is_nan()).count() as u64,
            op_us: op_us.to_vec(),
            slot_us: slot_us.to_vec(),
            ..Episode::default()
        };
        episode.requests.latencies_us = latencies_us.to_vec();
        episode
    }

    #[test]
    fn best_keeps_each_steps_shortest_time() {
        let mut best = Best::default();
        best.add(&episode(&[3.0, 1.0], &[5.0, 9.0], &[40.0], &[100.0, 400.0]))
            .unwrap();
        best.add(&episode(&[1.0, 2.0], &[7.0, 3.0], &[50.0], &[300.0, 200.0]))
            .unwrap();
        best.add(&episode(&[2.0, 2.0], &[6.0, 4.0], &[45.0], &[900.0, 900.0]))
            .unwrap();
        assert_eq!(best.latencies_us, [5.0, 3.0]);
        assert_eq!(best.op_us, [40.0]);
        assert_eq!(best.setup_us, [1.0, 1.0]);
        // Two requests over 100 + 200 us of best steps.
        let rate = best.req_per_s();
        assert_eq!((rate.num, rate.den), (2.0, 300.0 / 1e6));
        assert_eq!(best.episodes, 3);
        let values = end_to_end(&best, 1.0).unwrap_err();
        assert!(
            values.contains("req_p50_us: 2 samples leave 1 beyond p50, need 10"),
            "{values}"
        );
    }

    #[test]
    fn best_skips_failed_requests_and_refuses_other_work() {
        let mut best = Best::default();
        best.add(&episode(&[1.0], &[f64::NAN, 8.0], &[1.0], &[10.0]))
            .unwrap();
        let mut again = episode(&[1.0], &[6.0, 9.0], &[1.0], &[10.0]);
        again.completed = 1;
        best.add(&again).unwrap();
        assert_eq!(best.latencies_us, [6.0, 8.0], "a failed sample never wins");
        let err = best
            .add(&episode(&[1.0], &[6.0], &[1.0], &[10.0]))
            .unwrap_err();
        assert!(err.contains("episode 2 did (1, 1, 1, 1, 1)"), "{err}");
        assert_eq!(best.episodes, 2);
    }
}
