//! `cohort_chaos`: the paper's eight-phone Table 4 cohort
//! (`Table4ChaosWorkload`) for a few simulated days under a seeded
//! `FaultPlan`, audited by the `InvariantHarness`, driven the way
//! `pogo_chaos::run_workload_soak` drives it (fault windows, settle,
//! drain), with the phases timed apart. The analysis is the Table 4
//! computation: ground truth from each phone's raw-scan log through
//! pogo-cluster, matched against the summaries that reached the
//! collector.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use pogo::chaos::{ChaosController, FaultPlan, InvariantHarness, SoakConfig, WorkloadSpec};
use pogo::chaos_workloads::Table4ChaosWorkload;
use pogo::cluster::{match_clusters, ClusterSummary, MatchParams, RawScan, StreamConfig};
use pogo::core::{ChannelFilter, Msg, ScanQuery, Testbed};
use pogo::glue;
use pogo::ingest::export;
use pogo::mobility::{paper_cohort, ScanSynthesizer, World};
use pogo::obs::ObsConfig;
use pogo::platform::Bearer;
use pogo::sim::{Sim, SimDuration, SimRng, SimTime};

use crate::clock::Cpu;
use crate::measure::{self, Analysis, Layers, Modelled, Ops, Phases, Round};
use crate::replay::{self, Captured};

/// `run_workload_soak`'s quiet time between a fault window and its
/// invariant check, and its post-run drain.
const SETTLE: SimDuration = SimDuration::from_mins(2);
const DRAIN: SimDuration = SimDuration::from_mins(30);
const LOCKSTEP: SimDuration = SimDuration::from_mins(1);

/// The seed of the cohort's world, movement and fault plan, which
/// `--seed` does not change. It is the smallest seed on which the
/// repository's own table4 soak (`chaos_soak --workload table4 --seed 5
/// --days 3`) meets an invariant violation, so every run meets it too:
/// the violation is counted as a failed operation, the same share of
/// every run, until the program is fixed.
pub const INPUT_SEED: u64 = 5;
const MEAN_FAULT_GAP: SimDuration = SimDuration::from_hours(2);
const MAX_MSG_AGE: SimDuration = SimDuration::from_hours(1);

#[derive(Debug, Clone)]
pub struct Params {
    pub days: u64,
    /// Lowest Table 4 match and partial-match percentage each user must
    /// reach against the pogo-cluster ground truth (see the README).
    pub match_floor: f64,
    pub partial_floor: f64,
}

impl Params {
    pub fn full() -> Self {
        Params {
            days: 3,
            match_floor: 50.0,
            partial_floor: 60.0,
        }
    }

    /// One day: too few places per user for a percentage to mean much,
    /// so no floor.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            days: 1,
            match_floor: 0.0,
            partial_floor: 0.0,
        }
    }

    fn soak(&self) -> SoakConfig {
        SoakConfig {
            seed: INPUT_SEED,
            duration: SimDuration::from_days(self.days),
            mean_fault_gap: MEAN_FAULT_GAP,
            max_msg_age: MAX_MSG_AGE,
            capture_trace: false,
            ..SoakConfig::default()
        }
    }
}

/// Table 4 per user: (match %, partial %).
pub fn table4(
    testbed: &Testbed,
    collected: &BTreeMap<String, BTreeMap<i64, ClusterSummary>>,
) -> Vec<(String, f64, f64)> {
    testbed
        .devices()
        .iter()
        .map(|d| {
            let jid = d.jid().to_string();
            let truth =
                glue::ground_truth_from_log(&d.logs().lines("raw-scans"), StreamConfig::default());
            let got: Vec<ClusterSummary> = collected
                .get(&jid)
                .map(|m| m.values().cloned().collect())
                .unwrap_or_default();
            let report = match_clusters(&truth, &got, MatchParams::default());
            (jid, report.match_pct(), report.partial_pct())
        })
        .collect()
}

/// Checks each user's Table 4 row: match at least `p.match_floor`,
/// partial at least `p.partial_floor` and at least the match (a match
/// is also a partial match), both at most 100.
pub fn check_table4(rows: &[(String, f64, f64)], p: &Params) -> Result<(), String> {
    for (user, m, partial) in rows {
        if !(p.match_floor..=100.0).contains(m)
            || !(p.partial_floor.max(*m)..=100.0).contains(partial)
        {
            return Err(format!(
                "{user}: match {m:.1}% / partial {partial:.1}%, floors {} / {}",
                p.match_floor, p.partial_floor
            ));
        }
    }
    Ok(())
}

/// Times `ScanSynthesizer::scan` at the timestamps of each user's
/// logged raw scans, on the world and scenarios rebuilt as
/// `Table4ChaosWorkload` draws them from `seed`. The rebuilt synthesizer
/// must reproduce each user's first logged scan exactly, so a change in
/// the workload's draws fails the run instead of timing another world.
/// Returns ns per scan.
fn time_scan_synthesis(seed: u64, days: u64, raw_scans: &[Vec<String>]) -> Result<f64, String> {
    let mut rng = SimRng::seed_from_u64(seed ^ 0x007a_b1e4);
    let mut world = World::new(600, &mut rng);
    let specs: Vec<_> = paper_cohort()
        .into_iter()
        .filter(|s| s.name != "User 2a")
        .collect();
    if specs.len() != raw_scans.len() {
        return Err(format!(
            "{} users rebuilt for {} deployed phones",
            specs.len(),
            raw_scans.len()
        ));
    }
    let (mut calls, mut ns) = (0u64, 0u64);
    for (mut spec, lines) in specs.into_iter().zip(raw_scans) {
        spec.start_day = 0;
        spec.end_day = days;
        spec.roaming_days = spec
            .roaming_days
            .and_then(|(a, b)| (a < days).then_some((a, b.min(days))));
        spec.outage_days = spec
            .outage_days
            .and_then(|(a, b)| (a < days).then_some((a, b.min(days))));
        let scenario = spec.build(&mut world, &mut rng);
        let snapshot = world.clone();
        let mut synth = ScanSynthesizer::new(rng.fork(spec.seed_salt));
        // The workload forks its scan-failure stream next; keep in step.
        let _failure_rng = rng.fork(spec.seed_salt ^ 0xF41);
        let logged: Vec<RawScan> = lines
            .iter()
            .filter_map(|l| glue::raw_scan_from_msg(&Msg::from_json(l).ok()?))
            .collect();
        let t = Cpu::now();
        let mut first = None;
        for raw in &logged {
            let scan = synth.scan(
                &snapshot,
                scenario.trace.whereabouts(raw.timestamp_ms),
                raw.timestamp_ms,
            );
            if first.is_none() {
                first = Some(scan.clone());
            }
            std::hint::black_box(scan);
        }
        ns += t.elapsed().as_nanos() as u64;
        calls += logged.len() as u64;
        let same = |a: &RawScan, b: &RawScan| {
            a.readings.len() == b.readings.len()
                && a.readings
                    .iter()
                    .zip(&b.readings)
                    .all(|(x, y)| x.bssid == y.bssid && (x.rssi_dbm - y.rssi_dbm).abs() < 1e-9)
        };
        match (first.flatten(), logged.first()) {
            (Some(rebuilt), Some(log)) if same(&rebuilt, log) => {}
            (rebuilt, log) => {
                return Err(format!(
                    "{}: rebuilt first scan {rebuilt:?} differs from the logged {log:?}",
                    spec.name
                ))
            }
        }
    }
    Ok(ns as f64 / calls as f64)
}

type Collected = BTreeMap<String, BTreeMap<i64, ClusterSummary>>;

/// The cohort deployed under its fault plan and ready to run, with the
/// harness and the listener's captures.
pub struct Deployed {
    testbed: Testbed,
    harness: InvariantHarness,
    controller: ChaosController,
    ages: Rc<RefCell<Vec<u64>>>,
    collected: Rc<RefCell<Collected>>,
    payloads: Rc<RefCell<Vec<Msg>>>,
    /// Host seconds spent in harness checks so far.
    check_s: Rc<Cell<f64>>,
    /// End of the faulted phase.
    end: SimTime,
    /// Host seconds of the cohort build and of the deployment.
    split: (f64, f64),
}

/// Set-up: build the cohort, install the harness and the listener,
/// deploy the experiment, install the fault plan and its checks.
pub fn set_up(p: &Params, traced: bool) -> Result<Deployed, String> {
    let t = Cpu::now();
    let sim = Sim::new();
    let obs = if traced {
        ObsConfig::on()
    } else {
        ObsConfig::off()
    };
    let mut testbed = Testbed::with_obs(&sim, obs);
    let cfg = p.soak();
    let workload = Table4ChaosWorkload::new(p.days);
    workload.setup(&mut testbed, &cfg);
    let devices = testbed.devices().len();
    let fleet_build_s = t.elapsed().as_secs_f64();

    let harness = InvariantHarness::for_workload(&testbed, workload.name(), workload.audits());
    let ages: Rc<RefCell<Vec<u64>>> = Rc::default();
    let collected: Rc<RefCell<Collected>> = Rc::default();
    let payloads: Rc<RefCell<Vec<Msg>>> = Rc::default();
    {
        let (ages, collected, payloads) = (ages.clone(), collected.clone(), payloads.clone());
        testbed.collector().attach_listener(
            ChannelFilter::exp("loc").channel("locations"),
            move |ev| {
                if let Some(age) = measure::sample_age_ms(ev, "exit") {
                    ages.borrow_mut().push(age);
                }
                let cseq = ev.msg.get("cseq").and_then(Msg::as_num);
                if let (Some(cseq), Some(summary)) = (cseq, glue::summary_from_msg(ev.msg)) {
                    collected
                        .borrow_mut()
                        .entry(ev.device.to_owned())
                        .or_default()
                        .insert(cseq as i64, summary);
                }
                if traced {
                    payloads.borrow_mut().push(ev.msg.clone());
                }
            },
        );
    }
    workload.deploy(&testbed, &cfg);
    let end = SimTime::ZERO + workload.duration(&cfg);
    let plan = FaultPlan::seeded(cfg.seed)
        .devices(devices)
        .window(SimTime::ZERO + SimDuration::from_mins(30), end)
        .mean_gap(cfg.mean_fault_gap)
        .build();
    let controller = ChaosController::install(&testbed, &plan);
    let check_s = Rc::new(Cell::new(0.0));
    for fault in plan.faults() {
        let (h, check_s) = (harness.clone(), check_s.clone());
        sim.schedule_at(fault.at + fault.kind.window() + SETTLE, move || {
            let t = Cpu::now();
            h.check();
            check_s.set(check_s.get() + t.elapsed().as_secs_f64());
        });
    }
    Ok(Deployed {
        testbed,
        harness,
        controller,
        ages,
        collected,
        payloads,
        check_s,
        end,
        split: (fleet_build_s, t.elapsed().as_secs_f64() - fleet_build_s),
    })
}

pub fn round(p: &Params, traced: bool) -> Result<Round, String> {
    let mut phases = Phases::start();
    let Deployed {
        testbed,
        harness,
        controller,
        ages,
        collected,
        payloads,
        check_s,
        end,
        split,
    } = set_up(p, traced)?;
    let sim = testbed.sim().clone();
    let devices = testbed.devices().len();
    phases.begin_run();
    let events0 = sim.executed();
    let mut windows = measure::run_windows(
        &testbed,
        end.duration_since(SimTime::ZERO) + SETTLE,
        LOCKSTEP,
        |_| {},
    );
    // Drain: every phone powered, charging and online, long enough for
    // the retry machinery to empty every store.
    for node in testbed.devices() {
        if node.is_powered_off() {
            node.power_on();
        }
        let phone = node.phone();
        phone.battery().set_charging(true);
        if phone.connectivity().active().is_none() {
            phone.connectivity().set_active(Some(Bearer::Wifi));
        }
    }
    windows.extend(measure::run_windows(&testbed, DRAIN, LOCKSTEP, |_| {}));
    let sim_span = sim.now().duration_since(SimTime::ZERO);
    let events = sim.executed() - events0;
    phases.end_run();

    // Analysis: the Table 4 truth and match per user, plus a scan and
    // CSV export of the audited channel.
    let (analysis, analysis_passes) = measure::repeat_analysis(|| {
        let rows = table4(&testbed, &collected.borrow());
        let store = testbed.collector().store();
        let scan_t = Cpu::now();
        let stored = store.scan(&ScanQuery::exp("loc").channel("locations"));
        let scan_s = scan_t.elapsed().as_secs_f64();
        let export_t = Cpu::now();
        let exported = export::to_csv(&stored).len();
        Analysis {
            out: rows,
            scanned: stored.len(),
            scan_s,
            exported,
            export_s: export_t.elapsed().as_secs_f64(),
        }
    });
    let rows = &analysis.out;

    // Checks.
    let t = Cpu::now();
    harness.final_check();
    check_s.set(check_s.get() + t.elapsed().as_secs_f64());
    // Every invariant violation is a failed operation, reported rather
    // than fatal: on `INPUT_SEED` the program meets one (see the README).
    let violations = harness.violations();
    let published = harness.sent_total();
    let distinct = harness.delivered_distinct();
    let purged: u64 = testbed.devices().iter().map(|d| d.purged()).sum();
    let buffered: usize = testbed.devices().iter().map(|d| d.buffered()).sum();
    // `purged` counts every expired queue entry, not only samples (see
    // the README), so expiry can only bound the loss, not equal it.
    if buffered != 0 || distinct > published || published - distinct > purged {
        return Err(format!(
            "{distinct} distinct delivered of {published} published with {purged} expired \
             ({buffered} still buffered after the drain)"
        ));
    }
    let collected_total: usize = collected.borrow().values().map(BTreeMap::len).sum();
    if collected_total as u64 != distinct {
        return Err(format!(
            "listener saw {collected_total} distinct summaries, the store {distinct}"
        ));
    }
    check_table4(rows, p)?;

    let mut ages = ages.take();
    let (p50, p90) = measure::age_percentiles(&mut ages);
    let (joules, tx) = measure::energy_and_uplink(&testbed);
    let device_hours = devices as f64 * sim_span.as_secs_f64() / 3_600.0;
    let modelled = Modelled {
        joules_per_device_hour: joules / device_hours,
        uplink_bytes_per_device: tx as f64 / devices as f64,
        sample_age_p50_s: p50,
        sample_age_p90_s: p90,
        samples_delivered: distinct,
    };

    let mut layers = Layers::new();
    if traced {
        let raw_scans: Vec<Vec<String>> = testbed
            .devices()
            .iter()
            .map(|d| d.logs().lines("raw-scans"))
            .collect();
        layers = measure::common_layers(
            &testbed,
            device_hours,
            phases.run_s(),
            events,
            &windows,
            split,
        );
        layers.insert(
            "ingest.scan_rows_per_s",
            analysis.scanned as f64 / analysis.scan_s,
        );
        layers.insert(
            "ingest.export_bytes_per_s",
            analysis.exported as f64 / analysis.export_s,
        );
        layers.insert(
            "mobility.ns_per_scan",
            time_scan_synthesis(p.soak().seed, p.days, &raw_scans)?,
        );
        layers.insert(
            "chaos.faults_injected",
            controller.injected() as f64 / device_hours,
        );
        layers.insert("chaos.check_s", check_s.get());
        let captured = Captured {
            raw_scans,
            payloads: payloads.take(),
        };
        replay::replay_layers(&captured, testbed.collector(), &mut layers)?;
    }
    let ops = Ops {
        attempted: published,
        failed: violations.len() as u64,
    };
    let mut round = phases.finish(devices, sim_span, analysis_passes, modelled, ops, layers);
    round.notes =
        violations
            .iter()
            .map(|v| {
                format!(
                    "invariant violation: [{}] {} {} on {}: {}",
                    v.at, v.device, v.kind, v.channel, v.detail
                )
            })
            .chain(rows.iter().map(|(user, m, partial)| {
                format!("table4 {user} match {m:.1}% partial {partial:.1}%")
            }))
            .collect();
    Ok(round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_round_holds_the_invariants() {
        let r = round(&Params::tiny(), true).expect("one faulted day passes every check");
        assert!(r.modelled.samples_delivered > 0);
        assert!(r.modelled.samples_delivered <= r.ops.attempted);
    }

    #[test]
    fn table4_check_rejects_a_user_below_the_floor() {
        let p = Params::full();
        let ok = vec![("user-1@pogo".to_owned(), 80.0, 90.0)];
        assert_eq!(check_table4(&ok, &p), Ok(()));
        let low = vec![("user-1@pogo".to_owned(), 40.0, 90.0)];
        assert!(check_table4(&low, &p).is_err());
        let inconsistent = vec![("user-1@pogo".to_owned(), 90.0, 80.0)];
        assert!(check_table4(&inconsistent, &p).is_err());
    }
}
