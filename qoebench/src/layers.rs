//! Per-layer measurements of the traced run, taken from outside the
//! program: direct calls into the `trace` and `core` layers on the
//! workload's bundles, exact counts read from those bundles, and replays of
//! `device` and `radio` hot calls at the states the workloads reach.

use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use device::apps::FbVersion;
use device::{UiEvent, ViewSignature};
use netstack::pcap::Direction;
use netstack::{IpAddr, IpPacket, Proto, SocketAddr, TcpFlags, TcpHeader};
use qoe_doctor::analyze::app::{latency_summary, playback_reports};
use qoe_doctor::analyze::crosslayer::{
    long_jump_map_with, net_latency_breakdown, window_breakdown, MapperOptions,
};
use qoe_doctor::{Collection, Controller, WaitCondition};
use radio::rlc::{RlcChannel, RlcConfig};
use repro::scenario::{facebook_world, video_dataset, youtube_world, PUSH_BYTES};
use repro::NetKind;
use simcore::{DetRng, SimDuration, SimTime, Tick};

use crate::spans::Spans;
use crate::workload::{Checker, Counts};

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Sweeps over the bundles per trace/core metric; the median is reported.
const SWEEPS: usize = 3;
/// Batches per replayed call; the median per-call cost is reported.
const BATCHES: usize = 9;
/// Packets of one replayed photo upload (1400 B each, about 280 KB).
const PHOTO_PACKETS: u64 = 200;

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// One job's bundle under a cache root.
pub struct Bundle {
    /// Campaign directory name.
    pub campaign: String,
    /// Job directory name without its content-address suffix.
    pub job: String,
    /// Bundle directory.
    pub dir: PathBuf,
}

/// Every bundle under `root` (`<root>/<campaign>/<job>-<key>`), sorted.
pub fn find_bundles(root: &Path) -> Vec<Bundle> {
    let mut out = Vec::new();
    for campaign in sorted_entries(root) {
        for dir in sorted_entries(&campaign) {
            let name = file_name(&dir);
            let job = match name.rsplit_once('-') {
                Some((stem, key)) if key.len() == 16 => stem.to_string(),
                _ => name,
            };
            out.push(Bundle {
                campaign: file_name(&campaign),
                job,
                dir,
            });
        }
    }
    out
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|e| e.expect("readable directory entry").path())
        .collect();
    v.sort();
    v
}

fn file_name(p: &Path) -> String {
    p.file_name()
        .expect("entry has a name")
        .to_string_lossy()
        .into_owned()
}

fn dir_bytes(dir: &Path) -> u64 {
    sorted_entries(dir)
        .iter()
        .map(|p| {
            let meta = fs::metadata(p).expect("bundle entry metadata");
            if meta.is_dir() {
                dir_bytes(p)
            } else {
                meta.len()
            }
        })
        .sum()
}

/// Exact counts of one loaded bundle.
pub fn counts(dir: &Path, col: &Collection) -> Counts {
    Counts {
        bundle_bytes: dir_bytes(dir),
        behavior_records: col.behavior.len() as u64,
        sim_us: col.end.as_micros(),
        packets: col.trace.len() as u64,
        pdus: col.pdu_truth.as_ref().map_or(0, |t| t.len() as u64),
        rrc_transitions: col.qxdm.as_ref().map_or(0, |q| q.rrc.len() as u64),
        ui_mutations: col.camera.len() as u64,
    }
}

fn load(dir: &Path) -> (Collection, trace::BundleMeta) {
    Collection::load(dir).unwrap_or_else(|e| panic!("cannot load bundle {}: {e}", dir.display()))
}

/// Time `f` once under a span; returns its result and duration.
fn timed<S: Spans, T>(
    spans: &mut S,
    name: &str,
    layer: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let t0 = Instant::now();
    let v = black_box(f());
    let t1 = Instant::now();
    spans.done(None, name, layer, t0, t1);
    (v, t1 - t0)
}

/// `trace`, `core` and simulated-work metrics of the bundles under `root`.
/// `scratch` receives the re-saved bundles. Counts are checked against the
/// golden file at the default seed.
pub fn bundle_layers<S: Spans>(
    root: &Path,
    scratch: &Path,
    check: &mut Checker,
    spans: &mut S,
) -> Vec<Metric> {
    let bundles = find_bundles(root);
    assert!(!bundles.is_empty(), "no bundles under {}", root.display());

    let mut load_ms = Vec::new();
    let mut cols = Vec::new();
    for _ in 0..SWEEPS {
        let mut total = Duration::ZERO;
        cols = bundles
            .iter()
            .map(|b| {
                let name = format!("load {}/{}", b.campaign, b.job);
                let (col, d) = timed(spans, &name, "trace", || load(&b.dir));
                total += d;
                col
            })
            .collect();
        load_ms.push(total.as_secs_f64() * 1e3);
    }

    let mut save_ms = Vec::new();
    for sweep in 0..SWEEPS {
        let mut total = Duration::ZERO;
        for (i, (b, (col, meta))) in bundles.iter().zip(&cols).enumerate() {
            let dir = scratch.join(format!("{sweep}-{i}"));
            let name = format!("save {}/{}", b.campaign, b.job);
            let (r, d) = timed(spans, &name, "trace", || col.save(&dir, meta));
            r.unwrap_or_else(|e| panic!("cannot save {}: {e}", dir.display()));
            total += d;
        }
        save_ms.push(total.as_secs_f64() * 1e3);
        fs::remove_dir_all(scratch).expect("remove re-saved bundles");
    }

    let (mut map_ms, mut brk_ms, mut app_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SWEEPS {
        let (mut map, mut brk, mut app) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        for (b, (col, _)) in bundles.iter().zip(&cols) {
            let key = format!("{}/{}", b.campaign, b.job);
            let (m, k) = crosslayer(col, spans, &key);
            map += m;
            brk += k;
            let (_, a) = timed(spans, &format!("app {key}"), "core", || {
                (
                    playback_reports(&col.behavior, "video"),
                    latency_summary(&col.behavior, ""),
                )
            });
            app += a;
        }
        map_ms.push(map.as_secs_f64() * 1e3);
        brk_ms.push(brk.as_secs_f64() * 1e3);
        app_ms.push(app.as_secs_f64() * 1e3);
    }

    let mut sum = Counts::default();
    for (b, (col, _)) in bundles.iter().zip(&cols) {
        let c = counts(&b.dir, col);
        check.counts(&b.campaign, &b.job, &c);
        sum.bundle_bytes += c.bundle_bytes;
        sum.behavior_records += c.behavior_records;
        sum.sim_us += c.sim_us;
        sum.packets += c.packets;
        sum.pdus += c.pdus;
        sum.rrc_transitions += c.rrc_transitions;
        sum.ui_mutations += c.ui_mutations;
    }
    let load = median(&load_ms);
    vec![
        ("trace.save_ms", median(&save_ms), "ms"),
        ("trace.load_ms", load, "ms"),
        (
            "trace.load_mb_per_s",
            sum.bundle_bytes as f64 / 1e6 / (load / 1e3),
            "MB/s",
        ),
        ("trace.bundle_bytes", sum.bundle_bytes as f64, "B"),
        ("core.crosslayer_map_ms", median(&map_ms), "ms"),
        ("core.net_breakdown_ms", median(&brk_ms), "ms"),
        ("core.app_ms", median(&app_ms), "ms"),
        (
            "core.behavior_records",
            sum.behavior_records as f64,
            "count",
        ),
        ("sim.sim_s", sum.sim_us as f64 / 1e6, "s"),
        ("netstack.packets", sum.packets as f64, "count"),
        ("radio.pdus", sum.pdus as f64, "count"),
        ("radio.rrc_transitions", sum.rrc_transitions as f64, "count"),
        ("device.ui_mutations", sum.ui_mutations as f64, "count"),
    ]
}

/// Cross-layer mapping and network-latency breakdown of every measurement
/// window of a cellular collection, in both directions.
fn crosslayer<S: Spans>(col: &Collection, spans: &mut S, key: &str) -> (Duration, Duration) {
    let Some(qxdm) = &col.qxdm else {
        return (Duration::ZERO, Duration::ZERO);
    };
    let (mut map, mut brk) = (Duration::ZERO, Duration::ZERO);
    let t_map = Instant::now();
    for (_, rec) in col.behavior.iter().filter(|(_, r)| !r.timed_out) {
        for dir in [Direction::Uplink, Direction::Downlink] {
            let t0 = Instant::now();
            let pkts: Vec<(SimTime, &IpPacket)> = col
                .trace
                .window(rec.start, rec.end)
                .iter()
                .filter(|e| e.record.dir == dir)
                .map(|e| (e.at, &e.record.pkt))
                .collect();
            let mapped = long_jump_map_with(&pkts, qxdm, dir, MapperOptions::default());
            let t1 = Instant::now();
            let b = window_breakdown(rec, &col.trace);
            black_box(net_latency_breakdown(
                rec.start,
                rec.end,
                b.network_latency,
                &mapped,
                qxdm,
                dir,
            ));
            let t2 = Instant::now();
            map += t1 - t0;
            brk += t2 - t1;
        }
    }
    spans.done(
        None,
        &format!("crosslayer {key}"),
        "core",
        t_map,
        Instant::now(),
    );
    (map, brk)
}

/// Median per-call seconds of `f` over [`BATCHES`] batches of `calls`.
fn per_call<S: Spans>(
    spans: &mut S,
    name: &str,
    layer: &'static str,
    calls: u32,
    mut f: impl FnMut(),
) -> f64 {
    let mut per = Vec::new();
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        let t1 = Instant::now();
        spans.done(None, name, layer, t0, t1);
        per.push((t1 - t0).as_secs_f64() / calls as f64);
    }
    median(&per)
}

/// The player a throttled fig17 cell polls: search results listed, one
/// video loaded and playing.
fn player_state(seed: u64) -> Controller {
    let videos = video_dataset(11);
    let first = videos[0].name.clone();
    let world = youtube_world(
        videos,
        None,
        NetKind::Umts3gThrottled(repro::exp75::CAP_RATE),
        seed ^ 0xBEE,
        true,
    );
    let mut d = Controller::new(world);
    d.advance(SimDuration::from_secs(5));
    d.interact(&UiEvent::TypeText {
        target: ViewSignature::by_id("search_box"),
        text: String::new(),
    });
    d.interact(&UiEvent::KeyEnter);
    d.advance(SimDuration::from_secs(10));
    d.measure_after(
        "replay:initial_loading",
        &UiEvent::Click {
            target: ViewSignature::by_id(&format!("result_{first}")),
        },
        &WaitCondition::Hidden {
            id: "player_progress".into(),
        },
        SimDuration::from_secs(240),
    );
    d.advance(SimDuration::from_secs(20));
    d
}

/// The ListView news feed of a fig14_16 cell after an hour of pushed
/// updates (about 30 prepended items).
fn feed_state(seed: u64) -> Controller {
    let world = facebook_world(
        FbVersion::ListView50,
        None,
        true,
        Some(SimDuration::from_mins(2)),
        PUSH_BYTES,
        NetKind::Lte,
        seed,
        false,
    );
    let mut d = Controller::new(world);
    d.advance(SimDuration::from_secs(20 + 3600));
    d
}

fn photo_packet(id: u64) -> IpPacket {
    let len = 1400;
    IpPacket {
        id,
        src: SocketAddr::new(IpAddr::new(10, 0, 0, 1), 40000),
        dst: SocketAddr::new(IpAddr::new(31, 13, 64, 1), 443),
        proto: Proto::Tcp,
        tcp: Some(TcpHeader {
            seq: 1 + id * len as u64,
            ack: 0,
            flags: TcpFlags {
                ack: true,
                ..Default::default()
            },
        }),
        payload_len: len,
        udp_payload: None,
        markers: Vec::new(),
    }
}

/// Segment one photo upload on a 3G uplink RLC channel; returns the
/// elapsed time and the PDUs transmitted.
fn rlc_photo() -> (Duration, u64) {
    let mut ch = RlcChannel::new(
        RlcConfig::umts_uplink(),
        Direction::Uplink,
        DetRng::seed_from_u64(1),
    );
    let t0 = Instant::now();
    for i in 0..PHOTO_PACKETS {
        ch.enqueue(photo_packet(i), SimTime::ZERO);
    }
    let mut now = SimTime::ZERO;
    loop {
        ch.poll(now, true, 64e3);
        black_box(ch.take_pdu_events(now));
        black_box(ch.take_status_events(now));
        black_box(ch.take_exits(now));
        match ch.next_wake(true) {
            Some(w) if w > now => now = w,
            Some(_) => continue,
            None => break,
        }
    }
    (t0.elapsed(), ch.pdus_transmitted)
}

/// Per-call costs of the device and radio hot calls.
pub fn replays<S: Spans>(seed: u64, spans: &mut S) -> Vec<Metric> {
    let mut out = Vec::new();

    let s = spans.open("state player", "sim");
    let mut player = player_state(seed);
    spans.close(s);
    let now = player.now;
    let phone = &mut player.world.phone;
    let parse = per_call(spans, "parse_ui player", "device", 2_000, || {
        black_box(phone.parse_ui(now));
    });
    let revision = per_call(spans, "ui_revision player", "device", 2_000, || {
        black_box(phone.ui_revision(now));
    });
    let world = &player.world;
    let wake = per_call(spans, "next_wake player", "device", 200_000, || {
        black_box(black_box(world).next_wake());
    });
    out.push(("device.parse_ui_us.player", parse * 1e6, "us"));
    out.push(("device.ui_revision_us.player", revision * 1e6, "us"));
    out.push(("device.next_wake_ns.player", wake * 1e9, "ns"));

    let s = spans.open("state feed", "sim");
    let mut feed = feed_state(seed);
    spans.close(s);
    let now = feed.now;
    let phone = &mut feed.world.phone;
    let parse = per_call(spans, "parse_ui feed", "device", 2_000, || {
        black_box(phone.parse_ui(now));
    });
    // prepend_item while a parse snapshot is alive; the item is removed
    // again outside the timed region so every call sees the same tree.
    let mut per = Vec::new();
    for _ in 0..BATCHES {
        let calls = 500;
        let start = Instant::now();
        let mut total = Duration::ZERO;
        for _ in 0..calls {
            let snapshot = phone.parse_ui(now);
            let t0 = Instant::now();
            phone
                .ui
                .prepend_item(now, "news_feed", "TextView", "replayed post");
            total += t0.elapsed();
            black_box(snapshot);
            phone.ui.mutate(now, "replay:undo", |root| {
                if let Some(v) = root.find_mut("news_feed") {
                    v.children.remove(0);
                }
            });
        }
        spans.done(None, "prepend_item feed", "device", start, start + total);
        per.push(total.as_secs_f64() / calls as f64);
    }
    out.push(("device.parse_ui_us.feed", parse * 1e6, "us"));
    out.push(("device.ui_mutate_us.feed", median(&per) * 1e6, "us"));

    let mut per = Vec::new();
    for _ in 0..BATCHES {
        let start = Instant::now();
        let (d, pdus) = rlc_photo();
        spans.done(None, "rlc photo upload", "radio", start, start + d);
        per.push(d.as_secs_f64() / pdus as f64);
    }
    out.push(("radio.rlc_ns_per_pdu", median(&per) * 1e9, "ns"));
    out
}
