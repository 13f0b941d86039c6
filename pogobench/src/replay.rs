//! Replays of a round's captured inputs through single layers, run
//! after a traced round to time those layers in isolation: the device
//! scripts through the public `Interpreter`, message payloads through
//! the `Msg` JSON codec, store rows through a fresh `IngestPipeline`,
//! and raw-scan logs through pogo-cluster's streaming DBSCAN.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use pogo::cluster::StreamConfig;
use pogo::core::{CollectorNode, Msg, Obs, ScanQuery};
use pogo::glue;
use pogo::ingest::IngestPipeline;
use pogo::script::{Interpreter, Value};
use pogo::sim::Sim;

use crate::clock::Cpu;
use crate::measure::Layers;

/// One device script loaded into its own interpreter, with the Table-1
/// natives it calls stubbed: `subscribe` keeps the handler, `publish`
/// queues the message.
struct Script {
    interp: Interpreter,
    handler: Value,
    published: Rc<RefCell<Vec<Value>>>,
}

impl Script {
    fn load(source: &str) -> Result<Script, String> {
        let mut interp = Interpreter::new();
        let handler = Rc::new(RefCell::new(None));
        let published = Rc::new(RefCell::new(Vec::new()));
        for name in ["setDescription", "logTo", "freeze"] {
            interp.register_native(name, |_, _| Ok(Value::Null));
        }
        interp.register_native("thaw", |_, _| Ok(Value::Null));
        interp.register_native("json", |_, args| {
            let msg = args.first().map(Msg::from_script).unwrap_or(Msg::Null);
            Ok(Value::from(msg.to_json()))
        });
        let h = handler.clone();
        interp.register_native("subscribe", move |_, args| {
            *h.borrow_mut() = args.get(1).cloned();
            Ok(Value::Null)
        });
        let p = published.clone();
        interp.register_native("publish", move |_, args| {
            p.borrow_mut()
                .push(args.get(1).cloned().unwrap_or(Value::Null));
            Ok(Value::Null)
        });
        interp
            .eval(source)
            .map_err(|e| format!("script load: {e}"))?;
        let handler = handler
            .borrow_mut()
            .take()
            .ok_or("script never subscribed")?;
        Ok(Script {
            interp,
            handler,
            published,
        })
    }

    fn deliver(&mut self, msg: Value) -> Result<(), String> {
        self.interp
            .call(&self.handler, &[msg, Value::Null])
            .map(drop)
            .map_err(|e| format!("script callback: {e}"))
    }
}

/// Feeds each device's raw `wifi-scan` messages (JSON, as `scan.js`
/// logs them) through `scan.js` and the `scans` it publishes through
/// `clustering.js`, one interpreter pair per device. Returns the
/// callbacks delivered and the host ns spent in them.
fn replay_scripts(per_device: &[Vec<String>]) -> Result<(u64, u64), String> {
    let (mut callbacks, mut ns) = (0u64, 0u64);
    for lines in per_device {
        let mut scan = Script::load(glue::SCAN_JS)?;
        let mut clustering = Script::load(glue::CLUSTERING_JS)?;
        let msgs: Vec<Value> = lines
            .iter()
            .map(|l| Msg::from_json(l).map(|m| m.to_script()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("raw scan line: {e}"))?;
        for msg in msgs {
            let t = Cpu::now();
            scan.deliver(msg)?;
            let forwarded: Vec<Value> = scan.published.borrow_mut().drain(..).collect();
            callbacks += 1 + forwarded.len() as u64;
            for m in forwarded {
                clustering.deliver(m)?;
            }
            ns += t.elapsed().as_nanos() as u64;
        }
        black_box(clustering.published.borrow().len());
    }
    Ok((callbacks, ns))
}

/// Inputs a traced round captured for the replays.
#[derive(Default)]
pub struct Captured {
    /// Raw `wifi-scan` messages per device, as JSON lines.
    pub raw_scans: Vec<Vec<String>>,
    /// Payloads that reached the collector.
    pub payloads: Vec<Msg>,
}

/// Times every replayed layer and adds `script.ns_per_callback`,
/// `core.codec_ns_per_msg`, `ingest.ns_per_append` and
/// `cluster.ns_per_scan` to `layers`.
pub fn replay_layers(
    captured: &Captured,
    collector: &CollectorNode,
    layers: &mut Layers,
) -> Result<(), String> {
    let (callbacks, ns) = replay_scripts(&captured.raw_scans)?;
    if callbacks == 0 {
        return Err("script replay delivered no callbacks".into());
    }
    layers.insert("script.ns_per_callback", ns as f64 / callbacks as f64);

    if captured.payloads.is_empty() {
        return Err("no payloads captured for the codec replay".into());
    }
    let t = Cpu::now();
    for msg in &captured.payloads {
        let back = Msg::from_json(&black_box(msg.to_json()))
            .map_err(|e| format!("codec round trip: {e}"))?;
        if &back != msg {
            return Err(format!("codec round trip changed {msg:?} into {back:?}"));
        }
    }
    layers.insert(
        "core.codec_ns_per_msg",
        t.elapsed().as_nanos() as f64 / captured.payloads.len() as f64,
    );

    // Every row of every registered channel, appended again through a
    // fresh pipeline with the same schemas.
    let registry = collector.registry();
    let store = collector.store();
    let pipeline = IngestPipeline::new(&Sim::new(), &Obs::off());
    let mut rows = Vec::new();
    for (exp, channel) in registry.channels() {
        let schema = registry
            .schema(&exp, &channel)
            .ok_or("registered channel has a schema")?;
        pipeline
            .register(&exp, &channel, schema)
            .map_err(|e| e.to_string())?;
        rows.extend(store.scan(&ScanQuery::exp(&exp).channel(&channel)));
    }
    let t = Cpu::now();
    for row in &rows {
        pipeline
            .append(&row.exp, &row.channel, &row.device, row.value.clone())
            .map_err(|e| format!("ingest replay: {e}"))?;
    }
    pipeline.flush_all();
    layers.insert(
        "ingest.ns_per_append",
        t.elapsed().as_nanos() as f64 / rows.len().max(1) as f64,
    );
    if pipeline.stats().ingested_rows != rows.len() as u64 {
        return Err("ingest replay lost rows".into());
    }

    let scans: usize = captured.raw_scans.iter().map(Vec::len).sum();
    let t = Cpu::now();
    for lines in &captured.raw_scans {
        black_box(glue::ground_truth_from_log(lines, StreamConfig::default()));
    }
    layers.insert(
        "cluster.ns_per_scan",
        t.elapsed().as_nanos() as f64 / scans.max(1) as f64,
    );
    Ok(())
}
