//! `fleet_localization`: the paper's `scan.js` + `clustering.js` on a
//! fleet of two-sided walkers (`pogo_bench::fleet::localization_fleet`),
//! uploading closed clusters on an `Interval` flush into a JSON
//! `locations` channel.
//!
//! The oracle needs nothing from the program: each walker alternates
//! between two disjoint 5-AP sides every six minutes, so the scan
//! schedule fixes every cluster `clustering.js` must close — entry,
//! exit, size and representative side — by a few lines of bookkeeping
//! over (time, side) pairs, computed here apart from the scripts.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use pogo::core::{ChannelFilter, ChannelSchema, Msg, SampleValue, ScanQuery, Testbed};
use pogo::glue;
use pogo::ingest::export;
use pogo::net::Jid;
use pogo::obs::ObsConfig;
use pogo::platform::WifiConfig;
use pogo::sim::{Sim, SimDuration};
use pogo_bench::fleet::localization_fleet;

use crate::clock::Cpu;
use crate::measure::{self, Analysis, Layers, Modelled, Ops, Phases, Round};
use crate::replay::{self, Captured};

/// The walker's side period (`pogo_bench::fleet`'s `SIDE_PERIOD_MS`).
const SIDE_PERIOD_MS: u64 = 6 * 60 * 1000;
/// `scan.js`'s scan interval.
const SCAN_MS: u64 = 60 * 1000;
/// The fleet's store flush interval (`pogo_bench::fleet`'s `STORE_FLUSH`).
const FLUSH_MS: u64 = 90 * 1000;
/// Slack past the flush interval within which a published cluster must
/// have reached the collector (radio ramp-up plus link latency).
const DELIVERY_SLACK_MS: u64 = 30 * 1000;
/// `clustering.js`'s fewest scans of a cluster.
const MIN_PTS: usize = 4;
const LOCKSTEP: SimDuration = SimDuration::from_mins(1);
/// Simulated time of a round: three visits close, the fourth does not.
const SIM: SimDuration = SimDuration::from_mins(22);

#[derive(Debug, Clone)]
pub struct Params {
    pub devices: usize,
    pub shards: usize,
}

impl Params {
    pub fn full() -> Self {
        Params {
            devices: 2_000,
            shards: 4,
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            devices: 12,
            shards: 2,
        }
    }
}

/// One expected cluster closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closure {
    pub entry: u64,
    pub exit: u64,
    pub n: usize,
    pub side: u64,
    /// Time of the scan that closed it (when `clustering.js` publishes).
    pub closed_at: u64,
}

/// The closures `clustering.js` must publish for a walker whose first
/// scan lands at `t0`, for every scan up to `end_ms`: one per visit to a
/// side with at least `MIN_PTS` scans, from the visit's first scan to
/// its last, holding that visit's scans only, published at the first
/// scan of the next visit. Scans of one side are identical (distance
/// 0) and of the other disjoint (distance 1), and a visit's scans are
/// consecutive, so density and reachability reduce to "same visit".
pub fn expected_closures(t0: u64, end_ms: u64) -> Vec<Closure> {
    let mut out = Vec::new();
    let mut visit: Vec<u64> = Vec::new();
    let mut side = t0 / SIDE_PERIOD_MS % 2;
    let mut t = t0;
    while t <= end_ms {
        let now = t / SIDE_PERIOD_MS % 2;
        if now != side {
            if visit.len() >= MIN_PTS {
                out.push(Closure {
                    entry: visit[0],
                    exit: visit[visit.len() - 1],
                    n: visit.len(),
                    side,
                    closed_at: t,
                });
            }
            visit.clear();
            side = now;
        }
        visit.push(t);
        t += scan_step_ms();
    }
    out
}

/// Time between two scans: the Wi-Fi sensor arms its next tick when a
/// scan completes, so scans land one interval plus the scan time apart.
fn scan_step_ms() -> u64 {
    SCAN_MS + WifiConfig::default().scan_duration.as_millis()
}

/// Per-device rows as delivered, checked against [`expected_closures`].
/// Every row is an operation. A row that differs from its expected
/// closure, or repeats an earlier (device, entry) pair, counts as
/// failed (see the README: `clustering.js` seeds a return visit's
/// cluster with the earlier visit's scans still in its window). A
/// malformed row, or a device with too few or too many rows, fails the
/// check.
pub fn check_rows(
    rows: &BTreeMap<usize, Vec<Msg>>,
    devices: usize,
    end_ms: u64,
) -> Result<Ops, String> {
    let mut ops = Ops::default();
    for i in 0..devices {
        let got = rows.get(&i).map(Vec::as_slice).unwrap_or(&[]);
        let mut summaries = got
            .iter()
            .map(|msg| {
                glue::summary_from_msg(msg)
                    .ok_or_else(|| format!("phone-{i}: malformed location row {msg:?}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        summaries.sort_by_key(|s| s.exit_ms);
        let Some(t0) = summaries.iter().map(|s| s.entry_ms).min() else {
            return Err(format!("phone-{i}: no location rows at all"));
        };
        if t0 >= SIDE_PERIOD_MS {
            return Err(format!(
                "phone-{i}: first cluster enters at {t0} ms, not in the first period"
            ));
        }
        let expected = expected_closures(t0, end_ms);
        let must = expected
            .iter()
            .filter(|c| c.closed_at + FLUSH_MS + DELIVERY_SLACK_MS <= end_ms)
            .count();
        let may = expected.iter().filter(|c| c.closed_at <= end_ms).count();
        if summaries.len() < must || summaries.len() > may {
            return Err(format!(
                "phone-{i}: {} clusters delivered, expected between {must} and {may}",
                summaries.len()
            ));
        }
        let mut entries = BTreeSet::new();
        for (s, e) in summaries.iter().zip(&expected) {
            let bssids: Vec<String> = s
                .representative
                .aps()
                .iter()
                .map(|(b, _)| b.to_string())
                .collect();
            let want: Vec<String> = (0..5u64)
                .map(|j| format!("00:{:02x}:{:02x}:00:0{}:{j:02x}", i / 256, i % 256, e.side))
                .collect();
            let levels_ok = s
                .representative
                .aps()
                .iter()
                .zip(0..5u64)
                .all(|((_, l), j)| (l - (45.0 - j as f64) / 45.0).abs() < 1e-9);
            let matches = s.entry_ms == e.entry
                && s.exit_ms == e.exit
                && s.samples == e.n
                && s.representative.timestamp_ms == e.entry
                && bssids == want
                && levels_ok;
            if !entries.insert(s.entry_ms) || !matches {
                ops.failed += 1;
            }
            ops.attempted += 1;
        }
    }
    Ok(ops)
}

fn device_index(jid: &str) -> Option<usize> {
    jid.strip_prefix("phone-")?.split('@').next()?.parse().ok()
}

/// A fleet deployed and ready to run, with the listener's captures.
pub struct Deployed {
    testbed: Testbed,
    jids: Vec<Jid>,
    ages: Rc<RefCell<Vec<u64>>>,
    payloads: Rc<RefCell<Vec<Msg>>>,
    /// Host seconds of the fleet build and of the deployment.
    split: (f64, f64),
}

/// Set-up: build the fleet, register the channel, deploy the scripts.
pub fn set_up(p: &Params, seed: u64, traced: bool) -> Result<Deployed, String> {
    let t = Cpu::now();
    let sim = Sim::new();
    let obs = if traced {
        ObsConfig::on()
    } else {
        ObsConfig::off()
    };
    let mut testbed = Testbed::with_obs_sharded(&sim, obs, p.shards);
    let fleet = testbed.add_fleet(localization_fleet(p.devices).seed(seed));
    let fleet_build_s = t.elapsed().as_secs_f64();
    testbed
        .collector()
        .registry()
        .register("loc", "locations", ChannelSchema::json())
        .map_err(|e| e.to_string())?;
    let ages: Rc<RefCell<Vec<u64>>> = Rc::default();
    let payloads: Rc<RefCell<Vec<Msg>>> = Rc::default();
    {
        let (ages, payloads) = (ages.clone(), payloads.clone());
        testbed.collector().attach_listener(
            ChannelFilter::exp("loc").channel("locations"),
            move |ev| {
                if let Some(age) = measure::sample_age_ms(ev, "exit") {
                    ages.borrow_mut().push(age);
                }
                if traced {
                    payloads.borrow_mut().push(ev.msg.clone());
                }
            },
        );
    }
    testbed
        .collector()
        .deployment(&glue::localization_experiment("loc"))
        .to(&fleet.jids())
        .send()
        .map_err(|e| format!("deployment refused: {e:?}"))?;
    Ok(Deployed {
        testbed,
        jids: fleet.jids(),
        ages,
        payloads,
        split: (fleet_build_s, t.elapsed().as_secs_f64() - fleet_build_s),
    })
}

pub fn round(p: &Params, seed: u64, traced: bool) -> Result<Round, String> {
    let mut phases = Phases::start();
    let Deployed {
        testbed,
        jids,
        ages,
        payloads,
        split,
    } = set_up(p, seed, traced)?;
    let sim = testbed.sim().clone();
    phases.begin_run();
    let events0 = sim.executed();
    let windows = measure::run_windows(&testbed, SIM, LOCKSTEP, |_| {});
    let events = sim.executed() - events0;
    phases.end_run();

    // Analysis: a full scan of the channel, a scan per device, and CSV +
    // JSONL exports of the full scan.
    let (analysis, analysis_passes) = measure::repeat_analysis(|| {
        let store = testbed.collector().store();
        let scan_t = Cpu::now();
        let rows = store.scan(&ScanQuery::exp("loc").channel("locations"));
        let mut scanned = rows.len();
        for d in &jids {
            scanned += store
                .scan(
                    &ScanQuery::exp("loc")
                        .channel("locations")
                        .device(d.as_str()),
                )
                .len();
        }
        let scan_s = scan_t.elapsed().as_secs_f64();
        let export_t = Cpu::now();
        let exported = export::to_csv(&rows).len() + export::to_jsonl(&rows).len();
        Analysis {
            out: rows,
            scanned,
            scan_s,
            exported,
            export_s: export_t.elapsed().as_secs_f64(),
        }
    });
    let rows = &analysis.out;

    // Checks.
    let mut by_device: BTreeMap<usize, Vec<Msg>> = BTreeMap::new();
    for row in rows {
        let SampleValue::Json(raw) = &row.value else {
            return Err(format!("locations row is not JSON: {row:?}"));
        };
        let i =
            device_index(&row.device).ok_or_else(|| format!("unknown device {}", row.device))?;
        by_device
            .entry(i)
            .or_default()
            .push(Msg::from_json(raw).map_err(|e| e.to_string())?);
    }
    let end_ms = SIM.as_millis();
    let ops = check_rows(&by_device, p.devices, end_ms)?;
    let mut ages = ages.take();
    if ages.len() != rows.len() {
        return Err(format!(
            "{} listener events for {} store rows",
            ages.len(),
            rows.len()
        ));
    }
    let (p50, p90) = measure::age_percentiles(&mut ages);
    let (joules, tx) = measure::energy_and_uplink(&testbed);
    let device_hours = p.devices as f64 * SIM.as_secs_f64() / 3_600.0;
    let modelled = Modelled {
        joules_per_device_hour: joules / device_hours,
        uplink_bytes_per_device: tx as f64 / p.devices as f64,
        sample_age_p50_s: p50,
        sample_age_p90_s: p90,
        samples_delivered: rows.len() as u64,
    };

    let mut layers = Layers::new();
    if traced {
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
        layers.insert("mobility.ns_per_scan", 0.0);
        layers.insert("chaos.faults_injected", 0.0);
        layers.insert("chaos.check_s", 0.0);
        let captured = Captured {
            raw_scans: testbed
                .devices()
                .iter()
                .take(REPLAY_DEVICES)
                .map(|d| d.logs().lines("raw-scans"))
                .collect(),
            payloads: payloads.take(),
        };
        replay::replay_layers(&captured, testbed.collector(), &mut layers)?;
    }
    Ok(phases.finish(p.devices, SIM, analysis_passes, modelled, ops, layers))
}

/// Devices whose captured scans the traced round replays.
const REPLAY_DEVICES: usize = 100;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_closes_one_cluster_per_side_period() {
        // Scans every 61.5 s from 1:00; sides switch every 6 minutes.
        let c = expected_closures(60_000, 30 * 60_000);
        assert_eq!(scan_step_ms(), 61_500);
        assert_eq!(c[0].entry, 60_000);
        assert_eq!(c[0].exit, 306_000);
        assert_eq!(c[0].n, 5);
        assert_eq!(c[0].side, 0);
        assert_eq!(c[0].closed_at, 367_500);
        assert_eq!((c[1].entry, c[1].side), (367_500, 1));
        // The third cluster is the return visit's own: it enters at the
        // visit's first scan and holds that visit's scans only.
        assert_eq!((c[2].entry, c[2].side), (736_500, 0));
        assert_eq!(c[2].n, 6);
        assert!(c.windows(2).all(|w| w[0].closed_at == w[1].entry));
    }

    /// The row `clustering.js` publishes for closure `c` of device `i`.
    fn row(i: usize, c: &Closure) -> Msg {
        let aps = (0..5u64)
            .map(|j| {
                Msg::obj([
                    (
                        "b",
                        Msg::str(format!(
                            "00:{:02x}:{:02x}:00:0{}:{j:02x}",
                            i / 256,
                            i % 256,
                            c.side
                        )),
                    ),
                    ("l", Msg::Num((45.0 - j as f64) / 45.0)),
                ])
            })
            .collect();
        Msg::obj([
            ("entry", Msg::Num(c.entry as f64)),
            ("exit", Msg::Num(c.exit as f64)),
            ("n", Msg::Num(c.n as f64)),
            (
                "rep",
                Msg::obj([("t", Msg::Num(c.entry as f64)), ("aps", Msg::Arr(aps))]),
            ),
        ])
    }

    #[test]
    fn check_accepts_the_oracle_and_counts_wrong_rows_as_failed() {
        let end = 22 * 60_000;
        let rows: BTreeMap<usize, Vec<Msg>> = (0..3)
            .map(|i| {
                (
                    i,
                    expected_closures(61_625, end)
                        .iter()
                        .map(|c| row(i, c))
                        .collect(),
                )
            })
            .collect();
        let ops = check_rows(&rows, 3, end).expect("the oracle's own rows pass");
        assert_eq!(
            ops,
            Ops {
                attempted: 9,
                failed: 0
            }
        );

        // A row whose exit is one scan late is a failed operation.
        let mut corrupted = rows.clone();
        let msg = &mut corrupted.get_mut(&1).unwrap()[1];
        *msg = Msg::obj([
            ("entry", msg.get("entry").unwrap().clone()),
            (
                "exit",
                Msg::Num(msg.get("exit").and_then(Msg::as_num).unwrap() + 61_500.0),
            ),
            ("n", msg.get("n").unwrap().clone()),
            ("rep", msg.get("rep").unwrap().clone()),
        ]);
        assert_eq!(check_rows(&corrupted, 3, end).unwrap().failed, 1);

        // A return visit reported with the first visit's entry and
        // scans, as `clustering.js` publishes it today, is one too.
        let mut merged = rows.clone();
        let visits = expected_closures(61_625, end);
        let (first, third) = (visits[0], visits[2]);
        for (i, r) in merged.iter_mut() {
            r[2] = row(
                *i,
                &Closure {
                    entry: first.entry,
                    n: first.n + third.n,
                    ..third
                },
            );
        }
        assert_eq!(
            check_rows(&merged, 3, end).unwrap(),
            Ops {
                attempted: 9,
                failed: 3
            }
        );

        // A missing row or a malformed one fails the check.
        let mut missing = rows.clone();
        missing.get_mut(&2).unwrap().remove(0);
        assert!(check_rows(&missing, 3, end).is_err());
        let mut malformed = rows;
        malformed.get_mut(&0).unwrap()[0] = Msg::obj([("entry", Msg::str("soon"))]);
        assert!(check_rows(&malformed, 3, end).is_err());
    }

    #[test]
    fn tiny_round_passes_its_checks() {
        let r = round(&Params::tiny(), 7, false).expect("tiny round passes");
        assert_eq!(r.modelled.samples_delivered, r.ops.attempted);
        assert!(r.ops.failed <= r.ops.attempted);
    }
}
