//! `fleet_tailsync`: a cellular fleet, each phone running the §5.2
//! e-mail app, with no device scripts. Two collector-registered
//! channels ride Pogo's default `TailSync` flush: a typed `F64` battery
//! channel (field `voltage`) and a raw `wifi-scan` JSON channel. A query
//! mix and CSV/JSONL/SenML exports follow the run.
//!
//! The checks: every battery and scan sample arrives once, on its
//! sampling grid, and everything older than one e-mail period has
//! arrived; every age stays under `max_delay` plus link latency; modem
//! ramp-ups after warm-up equal the e-mail checks the app schedule
//! predicts (Pogo adds none, Table 3); store scans equal a fold kept
//! over listener events; and the JSONL export parses back to the rows.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pogo::core::sensor::{SensorSources, WifiReading};
use pogo::core::{
    ChannelFilter, ChannelSchema, ExperimentSpec, Fleet, FleetSpec, Msg, SampleValue, ScanQuery,
    Template, Testbed,
};
use pogo::ingest::{export, Row};
use pogo::net::FlushPolicy;
use pogo::obs::ObsConfig;
use pogo::platform::{CarrierProfile, NetAppConfig, PeriodicNetApp, WifiConfig};
use pogo::sim::{Sim, SimDuration, SimRng, SimTime};

use crate::clock::Cpu;
use crate::measure::{self, Analysis, Layers, Modelled, Ops, Phases, Round};
use crate::replay::{self, Captured};

const LOCKSTEP: SimDuration = SimDuration::from_mins(1);
const EXP: &str = "sense";
/// Link latency bound on top of `max_delay` for the age check.
const LATENCY_SLACK_MS: u64 = 10_000;
/// Time for a flush riding an e-mail tail to reach the collector.
const DELIVERY_SLACK_MS: u64 = 30_000;

/// Ramp-ups are compared from here to the end of the run; a whole
/// number of lock-step windows.
const WARM_UP: SimDuration = SimDuration::from_mins(10);
/// Sampling intervals of the battery and wifi-scan channels.
const BATTERY_MS: u64 = 10_000;
const SCAN_MS: u64 = 60_000;

#[derive(Debug, Clone)]
pub struct Params {
    pub devices: usize,
    pub shards: usize,
    pub sim: SimDuration,
}

impl Params {
    pub fn full() -> Self {
        Params {
            devices: 1_000,
            shards: 4,
            sim: SimDuration::from_mins(30),
        }
    }

    #[cfg(test)]
    pub fn tiny() -> Self {
        Params {
            devices: 10,
            shards: 2,
            sim: SimDuration::from_mins(25),
        }
    }
}

fn device_index(jid: &str) -> Option<usize> {
    jid.strip_prefix("phone-")?.split('@').next()?.parse().ok()
}

/// Device `i`'s e-mail start offset: whole seconds 20–40 past a minute,
/// so no check lands near a lock-step barrier, where ramp-ups and
/// checks are compared.
fn email_offset(seed: u64, i: usize) -> SimDuration {
    let mut rng =
        SimRng::seed_from_u64(seed ^ 0xe3a1 ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    SimDuration::from_secs(60 * rng.range_u64(0, 4) + rng.range_u64(20, 41))
}

/// E-mail checks in `(from, to]` for a check schedule `offset + k·period`.
fn predicted_checks(offset: u64, period: u64, from: u64, to: u64) -> u64 {
    let upto = |t: u64| {
        if t < offset {
            0
        } else {
            (t - offset) / period + 1
        }
    };
    upto(to) - upto(from)
}

/// The listener's fold per device and channel, compared with the store.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Fold {
    pub rows: u64,
    pub at_ms_sum: u64,
    pub value_bits_sum: u64,
}

impl Fold {
    fn add(&mut self, at: SimTime, value_bits: u64) {
        self.rows += 1;
        self.at_ms_sum = self.at_ms_sum.wrapping_add(at.as_millis());
        self.value_bits_sum = self.value_bits_sum.wrapping_add(value_bits);
    }
}

/// What the listener keeps: per device, the battery and scan
/// timestamps and the folds; plus every sample age.
#[derive(Default)]
pub struct Seen {
    pub battery_ts: Vec<Vec<u64>>,
    pub scan_ts: Vec<Vec<u64>>,
    pub folds: BTreeMap<(usize, &'static str), Fold>,
    pub ages: Vec<u64>,
}

/// The fold of the store's rows, keyed like [`Seen::folds`].
pub fn store_folds(rows: &[Row]) -> Result<BTreeMap<(usize, &'static str), Fold>, String> {
    let mut folds: BTreeMap<(usize, &'static str), Fold> = BTreeMap::new();
    for row in rows {
        let i =
            device_index(&row.device).ok_or_else(|| format!("unknown device {}", row.device))?;
        let (channel, bits) = match &row.value {
            SampleValue::F64(v) if row.channel == "battery" => ("battery", v.to_bits()),
            SampleValue::Json(_) if row.channel == "wifi-scan" => ("wifi-scan", 0),
            other => return Err(format!("unexpected row value {other:?} on {}", row.channel)),
        };
        folds.entry((i, channel)).or_default().add(row.at, bits);
    }
    Ok(folds)
}

/// Checks that each device's timestamps lie on one `step` grid with no
/// repeats, and that none is missing up to `cut_ms`. Returns the count.
pub fn check_grid(ts: &[u64], step: u64, cut_ms: u64, what: &str) -> Result<u64, String> {
    let mut sorted = ts.to_vec();
    sorted.sort_unstable();
    let (Some(&first), Some(&last)) = (sorted.first(), sorted.last()) else {
        return Err(format!("{what}: no samples"));
    };
    for pair in sorted.windows(2) {
        if pair[1] - pair[0] != step {
            return Err(format!("{what}: samples at {} and {} ms", pair[0], pair[1]));
        }
    }
    if first > 2 * step + 60_000 {
        return Err(format!("{what}: first sample only at {first} ms"));
    }
    if last + step <= cut_ms {
        return Err(format!(
            "{what}: samples stop at {last} ms, before {cut_ms} ms"
        ));
    }
    Ok(sorted.len() as u64)
}

/// Checks the JSONL export line by line against the rows it came from.
pub fn check_jsonl(jsonl: &str, rows: &[Row]) -> Result<(), String> {
    let lines: Vec<&str> = jsonl.lines().collect();
    if lines.len() != rows.len() {
        return Err(format!(
            "JSONL has {} lines for {} rows",
            lines.len(),
            rows.len()
        ));
    }
    for (line, row) in lines.iter().zip(rows) {
        let msg = Msg::from_json(line).map_err(|e| format!("JSONL line {line:?}: {e}"))?;
        let value_ok = match &row.value {
            SampleValue::F64(v) => msg.get("v").and_then(Msg::as_num) == Some(*v),
            SampleValue::Json(raw) => {
                msg.get("v").map(Msg::to_json)
                    == Some(Msg::from_json(raw).map_err(|e| e.to_string())?.to_json())
            }
            _ => false,
        };
        let ok = msg.get("exp").and_then(Msg::as_str) == Some(row.exp.as_str())
            && msg.get("channel").and_then(Msg::as_str) == Some(row.channel.as_str())
            && msg.get("device").and_then(Msg::as_str) == Some(row.device.as_str())
            && msg.get("t").and_then(Msg::as_num) == Some(row.at.as_millis() as f64)
            && value_ok;
        if !ok {
            return Err(format!("JSONL line {line:?} does not match row {row:?}"));
        }
    }
    Ok(())
}

fn fleet(p: &Params, seed: u64) -> FleetSpec {
    FleetSpec::new(p.devices)
        .prefix("phone")
        .seed(seed)
        .battery_jitter(0.15)
        .carriers(vec![
            CarrierProfile::kpn(),
            CarrierProfile::t_mobile(),
            CarrierProfile::vodafone(),
        ])
        .sensors(|i, rng| {
            // A fixed neighbourhood per device: 3–8 globally administered
            // APs (`scan.js` keeps them) at drawn levels.
            let aps: Vec<WifiReading> = (0..3 + rng.index(6))
                .map(|j| WifiReading {
                    bssid: format!("00:{:02x}:{:02x}:10:00:{j:02x}", i / 256, i % 256),
                    rssi_dbm: rng.range_f64(-90.0, -50.0).round(),
                })
                .collect();
            SensorSources {
                wifi_scan: Some(Box::new(move |_| Some(aps.clone()))),
                ..SensorSources::default()
            }
        })
}

/// A fleet deployed and ready to run, with the listener's captures.
pub struct Deployed {
    testbed: Testbed,
    fleet: Fleet,
    apps: Vec<PeriodicNetApp>,
    offsets: Vec<SimDuration>,
    seen: Rc<RefCell<Seen>>,
    captured: Rc<RefCell<Captured>>,
    /// Host seconds of the fleet build and of the deployment.
    split: (f64, f64),
}

/// Set-up: build the fleet and its e-mail apps, register both
/// channels, deploy the (script-less) experiment.
pub fn set_up(p: &Params, seed: u64, traced: bool) -> Result<Deployed, String> {
    let t = Cpu::now();
    let sim = Sim::new();
    let obs = if traced {
        ObsConfig::on()
    } else {
        ObsConfig::off()
    };
    let mut testbed = Testbed::with_obs_sharded(&sim, obs, p.shards);
    let fleet = testbed.add_fleet(fleet(p, seed));
    let email = NetAppConfig::email();
    let offsets: Vec<SimDuration> = (0..p.devices).map(|i| email_offset(seed, i)).collect();
    let apps: Vec<PeriodicNetApp> = fleet
        .iter()
        .zip(&offsets)
        .map(|(m, &start_offset)| {
            PeriodicNetApp::install(
                &m.phone,
                NetAppConfig {
                    start_offset,
                    ..email.clone()
                },
            )
        })
        .collect();
    let fleet_build_s = t.elapsed().as_secs_f64();

    let registry = testbed.collector().registry();
    registry
        .register_with_params(
            EXP,
            "battery",
            Msg::obj([("interval", Msg::Num(BATTERY_MS as f64))]),
            ChannelSchema::new(Template::F64).field("voltage"),
        )
        .map_err(|e| e.to_string())?;
    registry
        .register_with_params(
            EXP,
            "wifi-scan",
            Msg::obj([("interval", Msg::Num(SCAN_MS as f64))]),
            ChannelSchema::json(),
        )
        .map_err(|e| e.to_string())?;
    let seen = Rc::new(RefCell::new(Seen {
        battery_ts: vec![Vec::new(); p.devices],
        scan_ts: vec![Vec::new(); p.devices],
        ..Seen::default()
    }));
    let captured = Rc::new(RefCell::new(Captured {
        raw_scans: vec![Vec::new(); REPLAY_DEVICES.min(p.devices)],
        payloads: Vec::new(),
    }));
    {
        let (seen, captured) = (seen.clone(), captured.clone());
        testbed
            .collector()
            .attach_listener(ChannelFilter::exp(EXP), move |ev| {
                let mut s = seen.borrow_mut();
                let (Some(i), Some(ts)) = (
                    device_index(ev.device),
                    ev.msg.get("timestamp").and_then(Msg::as_num),
                ) else {
                    return;
                };
                if let Some(age) = measure::sample_age_ms(ev, "timestamp") {
                    s.ages.push(age);
                }
                if ev.channel == "battery" {
                    let v = ev
                        .msg
                        .get("voltage")
                        .and_then(Msg::as_num)
                        .unwrap_or(f64::NAN);
                    s.battery_ts[i].push(ts as u64);
                    s.folds
                        .entry((i, "battery"))
                        .or_default()
                        .add(ev.at, v.to_bits());
                } else {
                    s.scan_ts[i].push(ts as u64);
                    s.folds.entry((i, "wifi-scan")).or_default().add(ev.at, 0);
                    if traced && i < REPLAY_DEVICES {
                        captured.borrow_mut().raw_scans[i].push(ev.msg.to_json());
                    }
                }
                if traced && captured.borrow().payloads.len() < MAX_PAYLOADS {
                    captured.borrow_mut().payloads.push(ev.msg.clone());
                }
            });
    }
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: EXP.into(),
            scripts: vec![],
        })
        .to(&fleet.jids())
        .send()
        .map_err(|e| format!("deployment refused: {e:?}"))?;
    Ok(Deployed {
        testbed,
        fleet,
        apps,
        offsets,
        seen,
        captured,
        split: (fleet_build_s, t.elapsed().as_secs_f64() - fleet_build_s),
    })
}

pub fn round(p: &Params, seed: u64, traced: bool) -> Result<Round, String> {
    let mut phases = Phases::start();
    let Deployed {
        testbed,
        fleet,
        apps,
        offsets,
        seen,
        captured,
        split,
    } = set_up(p, seed, traced)?;
    let sim = testbed.sim().clone();
    let email = NetAppConfig::email();
    phases.begin_run();
    let events0 = sim.executed();
    let warm_up_at = SimTime::ZERO + WARM_UP;
    let mut at_warm_up: Vec<(u64, u64)> = Vec::new();
    let windows = measure::run_windows(&testbed, p.sim, LOCKSTEP, |now| {
        if now == warm_up_at {
            at_warm_up = fleet
                .iter()
                .zip(&apps)
                .map(|(m, app)| (m.phone.modem().ramp_ups(), app.checks()))
                .collect();
        }
    });
    let events = sim.executed() - events0;
    phases.end_run();

    // Analysis: full scans of both channels, a per-device scan of every
    // twentieth device, the last ten minutes of battery, and exports.
    let end = SimTime::ZERO + p.sim;
    let jids = fleet.jids();
    let (analysis, analysis_passes) = measure::repeat_analysis(|| {
        let store = testbed.collector().store();
        let scan_t = Cpu::now();
        let battery = store.scan(&ScanQuery::exp(EXP).channel("battery"));
        let scans = store.scan(&ScanQuery::exp(EXP).channel("wifi-scan"));
        let mut scanned = battery.len() + scans.len();
        for jid in jids.iter().step_by(20) {
            scanned += store
                .scan(&ScanQuery::exp(EXP).channel("battery").device(jid.as_str()))
                .len();
        }
        scanned += store
            .scan(
                &ScanQuery::exp(EXP)
                    .channel("battery")
                    .since(SimTime::from_millis(end.as_millis() - 600_000))
                    .until(end),
            )
            .len();
        let scan_s = scan_t.elapsed().as_secs_f64();
        let export_t = Cpu::now();
        let csv = export::to_csv(&battery);
        let jsonl = export::to_jsonl(&battery);
        let senml = export::to_senml(&scans);
        let exported = csv.len() + jsonl.len() + senml.len();
        Analysis {
            out: (battery, scans, jsonl),
            scanned,
            scan_s,
            exported,
            export_s: export_t.elapsed().as_secs_f64(),
        }
    });
    let (battery, scans, jsonl) = &analysis.out;

    // Checks.
    let mut seen = seen.take();
    let mut all_rows = battery.clone();
    all_rows.extend(scans.iter().cloned());
    if store_folds(&all_rows)? != seen.folds {
        return Err("store scans disagree with the listener's fold".into());
    }
    check_jsonl(jsonl, battery)?;
    let end_ms = end.as_millis();
    let cut_ms = end_ms - email.period.as_millis() - DELIVERY_SLACK_MS;
    let mut checked = 0u64;
    for i in 0..p.devices {
        checked += check_grid(
            &seen.battery_ts[i],
            BATTERY_MS,
            cut_ms,
            &format!("phone-{i} battery"),
        )?;
        // A scan's next tick is armed when the scan completes, so scans
        // land one interval plus the scan time apart.
        let step = SCAN_MS + WifiConfig::default().scan_duration.as_millis();
        checked += check_grid(
            &seen.scan_ts[i],
            step,
            cut_ms,
            &format!("phone-{i} wifi-scan"),
        )?;
    }
    let FlushPolicy::TailSync { max_delay } = FlushPolicy::pogo_default() else {
        return Err("Pogo's default flush policy is not tail-sync".into());
    };
    let max_age_ms = max_delay.as_millis() + LATENCY_SLACK_MS;
    if let Some(&worst) = seen.ages.iter().max() {
        if worst >= max_age_ms {
            return Err(format!(
                "a sample arrived {worst} ms old, over {max_age_ms} ms"
            ));
        }
    }
    if at_warm_up.len() != p.devices {
        return Err("the warm-up barrier was never reached".into());
    }
    let warm_ms = WARM_UP.as_millis();
    for (i, ((m, app), (ramps0, checks0))) in fleet.iter().zip(&apps).zip(&at_warm_up).enumerate() {
        let ramps = m.phone.modem().ramp_ups() - ramps0;
        let checks = app.checks() - checks0;
        let predicted = predicted_checks(
            offsets[i].as_millis(),
            email.period.as_millis(),
            warm_ms,
            end_ms,
        );
        if ramps != predicted || checks != predicted {
            return Err(format!(
                "phone-{i}: {ramps} ramp-ups and {checks} e-mail checks after warm-up, \
                 the app schedule predicts {predicted}"
            ));
        }
    }
    let (p50, p90) = measure::age_percentiles(&mut seen.ages);
    let (joules, tx) = measure::energy_and_uplink(&testbed);
    let device_hours = p.devices as f64 * p.sim.as_secs_f64() / 3_600.0;
    let modelled = Modelled {
        joules_per_device_hour: joules / device_hours,
        uplink_bytes_per_device: tx as f64 / p.devices as f64,
        sample_age_p50_s: p50,
        sample_age_p90_s: p90,
        samples_delivered: all_rows.len() as u64,
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
        replay::replay_layers(&captured.borrow(), testbed.collector(), &mut layers)?;
    }
    let ops = Ops {
        attempted: checked,
        failed: 0,
    };
    Ok(phases.finish(p.devices, p.sim, analysis_passes, modelled, ops, layers))
}

/// Devices whose raw scans the traced round replays through the scripts.
const REPLAY_DEVICES: usize = 100;
/// Payloads the traced round keeps for the codec replay.
const MAX_PAYLOADS: usize = 20_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicted_checks_count_the_schedule() {
        // Checks at 1:20, 6:20, 11:20, …
        assert_eq!(predicted_checks(80_000, 300_000, 0, 80_000), 1);
        assert_eq!(predicted_checks(80_000, 300_000, 80_000, 380_000), 1);
        assert_eq!(predicted_checks(80_000, 300_000, 600_000, 1_800_000), 4);
    }

    #[test]
    fn tiny_round_passes_its_checks() {
        let r = round(&Params::tiny(), 3, false).expect("tiny round passes");
        assert!(r.modelled.samples_delivered > 100);
        assert!(r.modelled.sample_age_p90_s >= r.modelled.sample_age_p50_s);
    }

    #[test]
    fn export_and_fold_checks_reject_corrupted_rows() {
        let row = |device: &str, t: u64, v: f64| Row {
            exp: EXP.into(),
            channel: "battery".into(),
            device: device.into(),
            at: SimTime::from_millis(t),
            value: SampleValue::F64(v),
        };
        let rows = vec![
            row("phone-0@pogo", 10_000, 3.9),
            row("phone-1@pogo", 10_000, 3.8),
        ];
        let jsonl = export::to_jsonl(&rows);
        assert_eq!(check_jsonl(&jsonl, &rows), Ok(()));
        assert!(check_jsonl(&jsonl.replace("3.9", "3.7"), &rows).is_err());
        assert!(check_jsonl(&jsonl.replace("phone-1", "phone-2"), &rows).is_err());

        let folds = store_folds(&rows).unwrap();
        let mut changed = rows.clone();
        changed[1].at = SimTime::from_millis(20_000);
        assert_ne!(store_folds(&changed).unwrap(), folds);
    }

    #[test]
    fn grid_check_rejects_gaps_and_repeats() {
        assert_eq!(
            check_grid(&[10_000, 20_000, 30_000], 10_000, 35_000, "x"),
            Ok(3)
        );
        assert!(check_grid(&[10_000, 20_000, 20_000], 10_000, 25_000, "x").is_err());
        assert!(check_grid(&[10_000, 30_000], 10_000, 35_000, "x").is_err());
        assert!(check_grid(&[10_000, 20_000], 10_000, 45_000, "x").is_err());
    }
}
