//! The Pogo testbed benchmark.
//!
//! ```text
//! pogobench --workload <fleet_localization|fleet_tailsync|cohort_chaos>
//!           --seed <n> --seconds <s> --trace <0|1> [--steady <k>]
//! ```
//!
//! A run repeats whole rounds of one workload — set up a fresh testbed,
//! run it, analyse the collector's data, check every output — until
//! `--seconds` have passed (at least [`MIN_ROUNDS`]), and reports the
//! median of each host-time metric over its rounds. Host time is the
//! thread's CPU time scaled to a reference speed of the machine (see
//! [`clock`]). The modelled metrics (joules, bytes, sample age,
//! samples) depend on the seed alone: every round must reproduce them
//! exactly, or the run fails.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` alternates
//! untraced and traced rounds (observability on, inputs captured and
//! replayed through single layers) and prints the per-layer metrics,
//! including the traced-over-untraced host-time ratio; the traced
//! rounds' modelled metrics must equal the untraced ones.
//!
//! `--steady <k>` makes k runs with seeds `seed..seed+k` and prints each
//! end-to-end metric's median and quartile spread with the host's name
//! and core count.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed check prints its reason to standard error and exits with 1.

mod alloc;
mod clock;
mod cohort;
mod localization;
mod measure;
mod replay;
mod tailsync;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use clock::{Beside, Cpu};
use measure::{Modelled, Round};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fewest rounds a run measures, however long they take.
const MIN_ROUNDS: usize = 3;

/// Extra set-ups a run times before each round: at most this many, and
/// only while they have taken less than [`EXTRA_SETUP_TIME`]. Every
/// set-up's testbed stays allocated (see the README), so the cap is
/// also a memory bound.
const EXTRA_SETUPS: usize = 10;
const EXTRA_SETUP_TIME: Duration = Duration::from_millis(50);

/// The end-to-end metrics: name and unit.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("device_sim_s_per_s", "1/s"),
    ("analysis_s", "s"),
    ("heap_peak_bytes_per_device", "B"),
    ("joules_per_device_hour", "J"),
    ("uplink_bytes_per_device", "B"),
    // Simulated seconds: a modelled figure, not host time.
    ("sample_age_p50_s", "sim-s"),
    ("sample_age_p90_s", "sim-s"),
    ("samples_delivered", "count"),
];

/// Unit of per-device-hour rates.
const PER_DH: &str = "1/device-h";

/// The per-layer metrics of a traced run: name and unit.
const PER_LAYER: [(&str, &str); 46] = [
    ("sim.events_per_device_hour", PER_DH),
    ("sim.host_ns_per_event", "ns"),
    ("sim.window_ms_p50", "ms"),
    ("sim.window_ms_p99", "ms"),
    ("setup.fleet_build_s", "s"),
    ("setup.deploy_s", "s"),
    ("deploy.compile_us", "us"),
    ("deploy.verify_us", "us"),
    ("deploy.absint_us", "us"),
    ("script.callbacks", PER_DH),
    ("script.steps", PER_DH),
    ("script.ns_per_callback", "ns"),
    ("broker.published", PER_DH),
    ("broker.fanout", PER_DH),
    ("sensor.power_ups", PER_DH),
    ("tail.sync.hits", PER_DH),
    ("tail.sync.misses", PER_DH),
    ("core.flushes", PER_DH),
    ("core.purged", PER_DH),
    ("core.codec_ns_per_msg", "ns"),
    ("net.routed", PER_DH),
    ("net.relayed", PER_DH),
    ("net.messages_sent", PER_DH),
    ("net.bytes_up_per_device", "B"),
    ("net.retransmits", PER_DH),
    ("net.dedup_drops", PER_DH),
    ("net.acks_sent", PER_DH),
    ("radio.ramp_ups", PER_DH),
    ("radio.dwell_ms.dch", "ms/device-h"),
    ("cpu.wakeups", PER_DH),
    ("energy.cpu_j", "J/device-h"),
    ("energy.modem-3g_j", "J/device-h"),
    ("energy.wifi_j", "J/device-h"),
    ("mobility.ns_per_scan", "ns"),
    ("cluster.ns_per_scan", "ns"),
    ("ingest.rows", PER_DH),
    ("ingest.batches", PER_DH),
    ("ingest.store_bytes_per_device", "B"),
    ("ingest.ns_per_append", "ns"),
    ("ingest.scan_rows_per_s", "1/s"),
    ("ingest.export_bytes_per_s", "B/s"),
    ("chaos.faults_injected", PER_DH),
    ("chaos.check_s", "s"),
    ("heap.allocs_per_device_hour", PER_DH),
    ("heap.setup_bytes_per_device", "B"),
    ("obs.traced_over_untraced_wall", "ratio"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetLocalization,
    FleetTailsync,
    CohortChaos,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet_localization" => Some(Workload::FleetLocalization),
            "fleet_tailsync" => Some(Workload::FleetTailsync),
            "cohort_chaos" => Some(Workload::CohortChaos),
            _ => None,
        }
    }

    /// CPU seconds of one set-up alone (the testbed is then dropped).
    fn setup_s(self, seed: u64) -> Result<f64, String> {
        fn timed<T>(set_up: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
            let t = Cpu::now();
            let deployed = set_up()?;
            let s = t.elapsed().as_secs_f64();
            drop(deployed);
            Ok(s)
        }
        match self {
            Workload::FleetLocalization => {
                timed(|| localization::set_up(&localization::Params::full(), seed, false))
            }
            Workload::FleetTailsync => {
                timed(|| tailsync::set_up(&tailsync::Params::full(), seed, false))
            }
            Workload::CohortChaos => timed(|| cohort::set_up(&cohort::Params::full(), false)),
        }
    }

    fn round(self, seed: u64, traced: bool) -> Result<Round, String> {
        match self {
            Workload::FleetLocalization => {
                localization::round(&localization::Params::full(), seed, traced)
            }
            Workload::FleetTailsync => tailsync::round(&tailsync::Params::full(), seed, traced),
            Workload::CohortChaos => cohort::round(&cohort::Params::full(), traced),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut steady) =
        (None, 1u64, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--steady" => steady = Some(value.parse::<usize>().map_err(|_| bad())?.max(1)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if trace && steady.is_some() {
        return Err("--steady reports end-to-end metrics; run it with --trace 0".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        steady,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn median_of(rounds: &[Round], f: impl Fn(&Round) -> f64) -> f64 {
    median(&mut rounds.iter().map(f).collect::<Vec<_>>())
}

/// The outcome of one run.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn end_to_end(
    rounds: &[Round],
    setups: &[f64],
    m: &Modelled,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut setups: Vec<f64> = rounds
        .iter()
        .map(|r| r.setup_s)
        .chain(setups.iter().copied())
        .collect();
    let mut passes: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.analysis_passes.iter().copied())
        .collect();
    let values = [
        median(&mut setups),
        median_of(rounds, Round::device_sim_s_per_s),
        median(&mut passes),
        median_of(rounds, |r| r.heap_peak_bytes as f64 / r.devices as f64),
        m.joules_per_device_hour,
        m.uplink_bytes_per_device,
        m.sample_age_p50_s,
        m.sample_age_p90_s,
        m.samples_delivered as f64,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn same_modelled(rounds: &[Round], first: &Modelled) -> Result<(), String> {
    for r in rounds {
        if r.modelled != *first {
            return Err(format!(
                "modelled metrics differ between rounds of one seed: {first:?} vs {:?}",
                r.modelled
            ));
        }
    }
    Ok(())
}

fn run(args: &Args, seed: u64) -> Result<Report, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut setups = Vec::new();
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // Another round starts while it would end closer to the deadline
    // than stopping now would (judged by the last round's length).
    let mut last_round = Duration::ZERO;
    while plain.len() < MIN_ROUNDS || Instant::now() + last_round / 2 < deadline {
        let start = Instant::now();
        // Set-ups on their own before each round, so that `setup_s` is
        // a median over many set-ups spread across the run.
        if !args.trace {
            let mut extra = Vec::new();
            let beside = Beside::start();
            while extra.len() < EXTRA_SETUPS && start.elapsed() < EXTRA_SETUP_TIME {
                extra.push(args.workload.setup_s(seed)?);
                clock::pace();
            }
            let speed = beside.speed();
            setups.extend(extra.iter().map(|s| s * speed));
        }
        plain.push(args.workload.round(seed, false)?);
        if args.trace {
            traced.push(args.workload.round(seed, true)?);
        }
        last_round = start.elapsed();
    }
    for note in &plain[0].notes {
        eprintln!("{note}");
    }
    let modelled = plain[0].modelled;
    same_modelled(&plain, &modelled)?;
    same_modelled(&traced, &modelled)?;
    let attempted = plain.iter().chain(&traced).map(|r| r.ops.attempted).sum();
    let failed = plain.iter().chain(&traced).map(|r| r.ops.failed).sum();
    if !args.trace {
        return Ok(Report {
            attempted,
            failed,
            metrics: end_to_end(&plain, &setups, &modelled),
        });
    }
    let mut metrics = Vec::new();
    for &(name, unit) in &PER_LAYER {
        let value = match name {
            "heap.allocs_per_device_hour" => {
                median_of(&plain, |r| r.run_allocs as f64 / r.device_hours())
            }
            "heap.setup_bytes_per_device" => {
                median_of(&plain, |r| r.heap_setup_bytes as f64 / r.devices as f64)
            }
            "obs.traced_over_untraced_wall" => {
                let (on, off) = (
                    median_of(&traced, Round::wall_s),
                    median_of(&plain, Round::wall_s),
                );
                println!("tracing overhead: traced round {on:.3} s over untraced round {off:.3} s");
                on / off
            }
            _ => {
                if traced.iter().any(|r| !r.layers.contains_key(name)) {
                    return Err(format!("the traced rounds did not measure {name}"));
                }
                median_of(&traced, |r| r.layers[name])
            }
        };
        metrics.push((name, value, unit));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn result_line(correct: bool, report: Option<&Report>) -> String {
    let (attempted, failed, metrics) = match report {
        Some(r) => (r.attempted, r.failed, r.metrics.as_slice()),
        None => (0, 0, &[][..]),
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

fn host_name() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned())
}

/// `--steady k`: k runs on consecutive seeds, then each end-to-end
/// metric's median and quartile spread (as `statistics.quantiles(n=4)`
/// computes quartiles: the exclusive method).
fn steady(args: &Args, k: usize) -> Result<(), String> {
    let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
    for i in 0..k {
        let seed = args.seed + i as u64;
        let report = run(args, seed)?;
        let line: Vec<String> = report
            .metrics
            .iter()
            .map(|(n, v, _)| format!("{n}={v:.6}"))
            .collect();
        println!("seed {seed}: {}", line.join(" "));
        for (slot, (_, v, _)) in per_metric.iter_mut().zip(&report.metrics) {
            slot.push(*v);
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host {} nproc {nproc} runs {k}", host_name());
    for ((name, unit), values) in END_TO_END.iter().zip(&per_metric) {
        let mut v = values.clone();
        let med = median(&mut v);
        let (q1, q3) = quartiles(&v);
        println!(
            "{name:<28} median {med:>16.6} {unit:<6} q1 {q1:>16.6} q3 {q3:>16.6} spread {:.4}",
            (q3 - q1) / med
        );
    }
    Ok(())
}

/// First and third quartiles by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        return (sorted[0], sorted[0]);
    }
    let at = |j: usize| {
        let m = (n + 1) * j;
        let (idx, rem) = (m / 4, m % 4);
        let idx = idx.clamp(1, n - 1);
        sorted[idx - 1] + (sorted[idx] - sorted[idx - 1]) * rem as f64 / 4.0
    };
    (at(1), at(3))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pogobench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.steady {
        return match steady(&args, k) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("pogobench: check failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args, args.seed) {
        Ok(report) => {
            for (name, v, unit) in &report.metrics {
                println!("{name:<34} {v:>18.6} {unit}");
            }
            println!("attempted {} failed {}", report.attempted, report.failed);
            println!("{}", result_line(true, Some(&report)));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pogobench: check failed: {e}");
            println!("{}", result_line(false, None));
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
    }

    /// The metrics this program prints are the ones `BENCHMARK.json`
    /// declares, with the same units, in the same order.
    #[test]
    fn printed_metrics_match_the_benchmark_file() {
        use pogo::core::Msg;
        let doc = Msg::from_json(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Msg::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Msg::as_str).expect("string field");
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let printed = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), printed(&END_TO_END));
        assert_eq!(declared("per_layer"), printed(&PER_LAYER));
    }
}
