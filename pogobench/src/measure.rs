//! What one round of a workload measures, and the helpers every
//! workload uses to read it off a finished testbed.

use std::collections::BTreeMap;

use pogo::core::{Msg, SampleEvent, Testbed};
use pogo::obs::Metric;
use pogo::sim::SimDuration;

use crate::alloc;
use crate::clock::{self, Beside, Cpu};

/// The modelled end-to-end numbers: what the simulated deployment
/// costs. They are a function of the workload and its seed alone, so
/// every round of a run, traced or not, must reproduce them bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Modelled {
    pub joules_per_device_hour: f64,
    pub uplink_bytes_per_device: f64,
    pub sample_age_p50_s: f64,
    pub sample_age_p90_s: f64,
    pub samples_delivered: u64,
}

/// A round's operations: the outputs its checks verified, and those
/// that failed a check in a way the run tolerates (a fault of the
/// program that shows on every seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Per-layer figures of one traced round, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One round: set up a fresh testbed, run it, analyse and check it.
/// Its host seconds are reference seconds (see [`clock`]).
#[derive(Debug, Clone)]
pub struct Round {
    pub devices: usize,
    /// Simulated seconds of the run phase.
    pub sim_secs: f64,
    pub setup_s: f64,
    /// Host seconds of the run phase.
    pub run_s: f64,
    /// Host seconds of each pass of the analysis.
    pub analysis_passes: Vec<f64>,
    /// Peak live heap over the round, above the heap at its start.
    pub heap_peak_bytes: usize,
    /// Live heap the set-up left behind.
    pub heap_setup_bytes: usize,
    /// Allocation calls during the run phase.
    pub run_allocs: u64,
    pub modelled: Modelled,
    /// The outputs the round's checks verified.
    pub ops: Ops,
    /// Per-layer figures; empty unless the round was traced.
    pub layers: Layers,
    /// Lines a run prints once to standard error (Table 4 per user).
    pub notes: Vec<String>,
}

impl Round {
    pub fn device_hours(&self) -> f64 {
        self.devices as f64 * self.sim_secs / 3_600.0
    }

    pub fn device_sim_s_per_s(&self) -> f64 {
        self.devices as f64 * self.sim_secs / self.run_s
    }

    /// Host seconds of the whole round.
    pub fn wall_s(&self) -> f64 {
        self.setup_s + self.run_s + self.analysis_passes.iter().sum::<f64>()
    }
}

/// Host clock and heap counters for the phases of one round. Each
/// phase's host seconds are scaled by the reference passes beside it.
pub struct Phases {
    setup_start: Option<(Cpu, Beside)>,
    heap0: usize,
    setup_s: f64,
    heap_setup: usize,
    run_start: Option<(Cpu, Beside, u64)>,
    run_s: f64,
    run_allocs: u64,
}

impl Phases {
    /// Starts the round: the set-up phase begins now.
    pub fn start() -> Self {
        let beside = Beside::start();
        alloc::reset_peak();
        Phases {
            setup_start: Some((Cpu::now(), beside)),
            heap0: alloc::live(),
            setup_s: 0.0,
            heap_setup: 0,
            run_start: None,
            run_s: 0.0,
            run_allocs: 0,
        }
    }

    /// Ends set-up and starts the run phase.
    pub fn begin_run(&mut self) {
        let (t, beside) = self.setup_start.take().expect("begin_run runs once");
        self.setup_s = t.elapsed().as_secs_f64();
        self.setup_s *= beside.speed();
        self.heap_setup = alloc::live().saturating_sub(self.heap0);
        self.run_start = Some((Cpu::now(), Beside::start(), alloc::allocs()));
    }

    /// Ends the run phase.
    pub fn end_run(&mut self) {
        let (t, beside, a) = self.run_start.take().expect("begin_run precedes end_run");
        self.run_s = t.elapsed().as_secs_f64();
        self.run_allocs = alloc::allocs() - a;
        self.run_s *= beside.speed();
    }

    /// Host seconds of the run phase (after [`Phases::end_run`]).
    pub fn run_s(&self) -> f64 {
        self.run_s
    }

    /// Finishes the round with the analysis passes timed by the caller.
    pub fn finish(
        self,
        devices: usize,
        sim: SimDuration,
        analysis_passes: Vec<f64>,
        modelled: Modelled,
        ops: Ops,
        layers: Layers,
    ) -> Round {
        Round {
            devices,
            sim_secs: sim.as_secs_f64(),
            setup_s: self.setup_s,
            run_s: self.run_s,
            analysis_passes,
            heap_peak_bytes: alloc::peak().saturating_sub(self.heap0),
            heap_setup_bytes: self.heap_setup,
            run_allocs: self.run_allocs,
            modelled,
            ops,
            layers,
            notes: Vec::new(),
        }
    }
}

/// How many times a round runs its analysis. `analysis_s` is the median
/// over every pass of a run.
const ANALYSIS_REPEATS: usize = 5;

/// What one pass of a round's collector-side analysis did.
pub struct Analysis<T> {
    /// What the checks read.
    pub out: T,
    /// Rows returned by store scans, and the host seconds they took.
    pub scanned: usize,
    pub scan_s: f64,
    /// Bytes exported, and the host seconds the exports took.
    pub exported: usize,
    pub export_s: f64,
}

/// Runs a round's analysis [`ANALYSIS_REPEATS`] times; returns the last
/// pass and the host seconds of every pass.
pub fn repeat_analysis<T>(mut analyse: impl FnMut() -> Analysis<T>) -> (Analysis<T>, Vec<f64>) {
    let mut times = Vec::with_capacity(ANALYSIS_REPEATS);
    let mut last = None;
    let beside = Beside::start();
    for _ in 0..ANALYSIS_REPEATS {
        clock::pace();
        let t = Cpu::now();
        let pass = analyse();
        times.push(t.elapsed().as_secs_f64());
        last = Some(pass);
    }
    let speed = beside.speed();
    for t in &mut times {
        *t *= speed;
    }
    (last.expect("at least one pass"), times)
}

/// Steps the testbed through `duration` in lock-step windows, exactly
/// as [`Testbed::run_lockstep`] does, timing each window. `at_barrier`
/// runs at every barrier with the sim time reached. Returns the host
/// milliseconds of each window.
pub fn run_windows(
    testbed: &Testbed,
    duration: SimDuration,
    window: SimDuration,
    mut at_barrier: impl FnMut(pogo::sim::SimTime),
) -> Vec<f64> {
    let sim = testbed.sim();
    let deadline = sim.now() + duration;
    let mut windows = Vec::new();
    while sim.now() < deadline {
        let remaining = deadline.duration_since(sim.now());
        let t = Cpu::now();
        sim.run_for(remaining.min(window));
        testbed.publish_shard_metrics();
        windows.push(t.elapsed().as_secs_f64() * 1e3);
        at_barrier(sim.now());
        clock::pace();
    }
    windows
}

/// The `q`-quantile of `sorted` by the nearest-rank rule.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sample age in sim milliseconds: collector arrival minus the device
/// timestamp the sample carries in `field`.
pub fn sample_age_ms(event: &SampleEvent, field: &str) -> Option<u64> {
    let ts = event.msg.get(field).and_then(Msg::as_num)?;
    Some(event.at.as_millis().saturating_sub(ts as u64))
}

/// Age percentiles (p50, p90) in sim seconds.
pub fn age_percentiles(ages_ms: &mut [u64]) -> (f64, f64) {
    ages_ms.sort_unstable();
    (
        nearest_rank(ages_ms, 0.5) as f64 / 1e3,
        nearest_rank(ages_ms, 0.9) as f64 / 1e3,
    )
}

/// Fleet-wide modelled energy and uplink: total joules over every
/// device's meter and bytes sent by its cellular and Wi-Fi radios.
pub fn energy_and_uplink(testbed: &Testbed) -> (f64, u64) {
    let mut joules = 0.0;
    let mut tx = 0u64;
    for d in testbed.devices() {
        let phone = d.phone();
        joules += phone.meter().total_joules();
        tx += phone.modem().byte_counters().0 + phone.wifi().byte_counters().0;
    }
    (joules, tx)
}

/// Obs counters and histogram sums added up over every scope.
pub struct ObsTotals(BTreeMap<String, f64>);

impl ObsTotals {
    pub fn read(testbed: &Testbed) -> Self {
        let mut totals = BTreeMap::new();
        for row in testbed.obs().metrics().snapshot() {
            let v = match row.metric {
                Metric::Counter(c) => c as f64,
                Metric::Histogram(h) => h.sum,
                Metric::Gauge(_) => continue,
            };
            *totals.entry(row.name).or_insert(0.0) += v;
        }
        ObsTotals(totals)
    }

    /// The total for `name`; 0 when nothing recorded it.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The per-layer figures every workload reads the same way off a traced
/// testbed after its run: sim, broker/sensor/tail/device, net,
/// platform, ingest and the set-up split.
pub fn common_layers(
    testbed: &Testbed,
    device_hours: f64,
    run_s: f64,
    events: u64,
    windows_ms: &[f64],
    setup: (f64, f64),
) -> Layers {
    let obs = ObsTotals::read(testbed);
    let per_dh = |v: f64| v / device_hours;
    let devices = testbed.devices().len() as f64;
    let mut windows = windows_ms.to_vec();
    windows.sort_by(f64::total_cmp);
    let mut l = Layers::new();
    l.insert("sim.events_per_device_hour", per_dh(events as f64));
    l.insert("sim.host_ns_per_event", run_s * 1e9 / events as f64);
    l.insert("sim.window_ms_p50", nearest_rank(&windows, 0.5));
    l.insert("sim.window_ms_p99", nearest_rank(&windows, 0.99));
    l.insert("setup.fleet_build_s", setup.0);
    l.insert("setup.deploy_s", setup.1);
    l.insert("deploy.compile_us", obs.get("deploy.compile_us"));
    l.insert("deploy.verify_us", obs.get("deploy.verify_us"));
    l.insert("deploy.absint_us", obs.get("deploy.absint_us"));
    l.insert("script.callbacks", per_dh(obs.get("script.callbacks")));
    l.insert("script.steps", per_dh(obs.get("script.steps")));
    l.insert("broker.published", per_dh(obs.get("broker.published")));
    l.insert("broker.fanout", per_dh(obs.get("broker.fanout")));
    l.insert("sensor.power_ups", per_dh(obs.get("sensor.power_ups")));
    l.insert("tail.sync.hits", per_dh(obs.get("tail.sync.hits")));
    l.insert("tail.sync.misses", per_dh(obs.get("tail.sync.misses")));
    let (mut flushes, mut purged, mut ramp_ups, mut wakeups) = (0u64, 0u64, 0u64, 0u64);
    let mut rails: BTreeMap<String, f64> = BTreeMap::new();
    for d in testbed.devices() {
        flushes += d.flushes();
        purged += d.purged();
        let phone = d.phone();
        ramp_ups += phone.modem().ramp_ups();
        wakeups += phone.cpu().wakeups();
        for (rail, j) in phone.meter().breakdown() {
            *rails.entry(rail).or_insert(0.0) += j;
        }
    }
    l.insert("core.flushes", per_dh(flushes as f64));
    l.insert("core.purged", per_dh(purged as f64));
    let shards = testbed.server().shard_stats();
    l.insert(
        "net.routed",
        per_dh(shards.iter().map(|s| s.routed as f64).sum()),
    );
    l.insert(
        "net.relayed",
        per_dh(shards.iter().map(|s| s.relayed as f64).sum()),
    );
    l.insert("net.messages_sent", per_dh(obs.get("net.messages_sent")));
    l.insert("net.bytes_up_per_device", obs.get("net.bytes_up") / devices);
    l.insert("net.retransmits", per_dh(obs.get("net.retransmits")));
    l.insert("net.dedup_drops", per_dh(obs.get("net.dedup_drops")));
    l.insert("net.acks_sent", per_dh(obs.get("net.acks_sent")));
    l.insert("radio.ramp_ups", per_dh(ramp_ups as f64));
    l.insert("radio.dwell_ms.dch", per_dh(obs.get("radio.dwell_ms.dch")));
    l.insert("cpu.wakeups", per_dh(wakeups as f64));
    for (rail, name) in [
        ("cpu", "energy.cpu_j"),
        ("modem-3g", "energy.modem-3g_j"),
        ("wifi", "energy.wifi_j"),
    ] {
        l.insert(name, per_dh(rails.get(rail).copied().unwrap_or(0.0)));
    }
    let ingest = testbed.collector().stats().ingest;
    l.insert("ingest.rows", per_dh(ingest.ingested_rows as f64));
    l.insert("ingest.batches", per_dh(ingest.batches_flushed as f64));
    l.insert(
        "ingest.store_bytes_per_device",
        ingest.store_bytes as f64 / devices,
    );
    l
}
