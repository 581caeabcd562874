//! Differential test of the wake-indexed world loop.
//!
//! `World::tick` ticks only the server nodes that are due or were handed a
//! packet, and polls a host only when it is due.
//! `device::world::reference::TickEverything` drives the same world the
//! way the loop did before: every node and every host at every instant,
//! every wake recomputed from scratch. For seeded fault plans over the
//! YouTube, Facebook (with a posting peer) and browser scenarios, both
//! loops must leave identical artifacts behind.

use device::apps::{BrowserConfig, FbVersion, VideoSpec};
use device::world::reference::TickEverything;
use device::{CpuMeter, NetAttachment, Phone, ScreenEvent, UiEvent, ViewSignature, World};
use faults::{FaultKind, FaultPlan, Window};
use netstack::pcap::PacketRecord;
use radio::qxdm::QxdmLog;
use radio::rlc::PduEvent;
use radio::RadioTech;
use repro::scenario::{browser_world, facebook_world, youtube_world, PUSH_BYTES};
use repro::NetKind;
use simcore::{advance, DetRng, RecordLog, SimDuration, SimTime, Tick};

/// Fault plans per scenario family (three families).
const PLANS: u64 = 50;

/// Simulated length of every session.
const END: SimTime = SimTime::from_secs(24);

/// What one device left behind.
#[derive(Debug, PartialEq)]
struct DeviceOut {
    capture: RecordLog<PacketRecord>,
    qxdm: Option<(QxdmLog, RecordLog<PduEvent>)>,
    camera: RecordLog<ScreenEvent>,
    cpu: CpuMeter,
    crashes: u32,
}

/// Everything deterministic a finished world holds.
#[derive(Debug, PartialEq)]
struct Outcome {
    phone: DeviceOut,
    peers: Vec<DeviceOut>,
    /// Per server host: every socket's state and transport counters.
    servers: Vec<Vec<String>>,
    dns_dropped: u64,
    stall_dropped: u64,
    next_wake: Option<SimTime>,
}

fn device_out(phone: &mut Phone) -> DeviceOut {
    let qxdm = match &mut phone.net {
        NetAttachment::Cell(b) => Some(b.qxdm.take_logs()),
        NetAttachment::Wifi { .. } => None,
    };
    DeviceOut {
        capture: phone.capture.take_trace(),
        qxdm,
        camera: std::mem::take(&mut phone.ui.camera),
        cpu: phone.cpu,
        crashes: phone.crashes,
    }
}

fn outcome(mut world: World, next_wake: Option<SimTime>) -> Outcome {
    let servers = world
        .internet
        .hosts()
        .map(|h| {
            (0..h.socket_count())
                .map(|i| format!("{:?} {:?}", h.sock(i).state(), h.sock(i).stats))
                .collect()
        })
        .collect();
    Outcome {
        phone: device_out(&mut world.phone),
        peers: world.peers.iter_mut().map(device_out).collect(),
        servers,
        dns_dropped: world.internet.dns_dropped,
        stall_dropped: world.internet.stall_dropped,
        next_wake,
    }
}

/// Run `world` to [`END`] with the wake-indexed loop or the reference
/// loop, injecting `script` at its instants the way `Controller::interact`
/// does: inject, then advance, which ticks the injection instant because
/// the phone is due there.
fn run(mut world: World, script: &[(SimTime, UiEvent)], reference: bool) -> Outcome {
    let step = |world: &mut World, from: SimTime, to: SimTime| {
        if reference {
            advance(&mut TickEverything(world), from, to);
        } else {
            advance(world, from, to);
        }
    };
    let mut now = SimTime::ZERO;
    for (at, ev) in script {
        step(&mut world, now, *at);
        world.phone.inject_ui(ev, *at);
        now = *at;
    }
    step(&mut world, now, END);
    let scanned = TickEverything(&mut world).next_wake();
    if !reference {
        assert_eq!(world.next_wake(), scanned, "cached wakes went stale");
    }
    outcome(world, scanned)
}

fn millis(rng: &mut DetRng, lo: u64, hi: u64) -> SimTime {
    SimTime::from_millis(rng.range_u64(lo, hi))
}

fn window(rng: &mut DetRng) -> Window {
    let from = millis(rng, 500, 18_000);
    Window::new(
        from,
        from + SimDuration::from_millis(rng.range_u64(300, 6_000)),
    )
}

/// A seeded plan drawing each of the five fault kinds with probability
/// 0.6; `servers` are the names a stall may target (aliases included).
fn plan(rng: &mut DetRng, servers: &[&str]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    if rng.chance(0.6) {
        plan = plan.with_kind(FaultKind::DnsOutage {
            window: window(rng),
        });
    }
    if rng.chance(0.6) {
        plan = plan.with_kind(FaultKind::ServerStall {
            server: servers[rng.index(servers.len())].to_string(),
            window: window(rng),
        });
    }
    if rng.chance(0.6) {
        plan = plan.with_kind(FaultKind::LinkOutage {
            window: window(rng),
        });
    }
    if rng.chance(0.6) {
        // After the scripted interactions, which a dead app would lose.
        plan = plan.with_kind(FaultKind::AppCrash {
            at: millis(rng, 10_000, 22_000),
            relaunch: SimDuration::from_millis(rng.range_u64(500, 3_000)),
        });
    }
    if rng.chance(0.6) {
        let to = if rng.chance(0.5) {
            RadioTech::Umts3g
        } else {
            RadioTech::Lte
        };
        plan = plan.with_kind(FaultKind::TechSwitch {
            at: millis(rng, 1_000, 20_000),
            to,
        });
    }
    plan
}

fn net(rng: &mut DetRng) -> NetKind {
    [
        NetKind::Umts3g,
        NetKind::Lte,
        NetKind::Wifi,
        NetKind::LteThrottled(900e3),
        NetKind::Umts3gThrottled(400e3),
    ][rng.index(5)]
}

fn click(id: &str) -> UiEvent {
    UiEvent::Click {
        target: ViewSignature::by_id(id),
    }
}

fn type_text(id: &str, text: &str) -> UiEvent {
    UiEvent::TypeText {
        target: ViewSignature::by_id(id),
        text: text.into(),
    }
}

/// For each seed, build the world twice with `build(net, seed)`, arm both
/// with the same seeded plan, run one per loop, and check they agree.
/// Returns the plans, so callers can check what they exercised.
fn check_family(
    family: &str,
    servers: &[&str],
    script: &[(SimTime, UiEvent)],
    build: impl Fn(NetKind, u64) -> World,
) -> Vec<FaultPlan> {
    let mut plans = Vec::new();
    let mut busy = 0;
    for i in 0..PLANS {
        let seed = 0x57A1_1000 + i;
        let mut rng = DetRng::seed_from_u64(seed);
        let net = net(&mut rng);
        let plan = plan(&mut rng, servers);
        let mut fast = build(net, seed);
        let mut slow = build(net, seed);
        plan.arm(&mut fast);
        plan.arm(&mut slow);
        let fast = run(fast, script, false);
        let slow = run(slow, script, true);
        // Outages can stall a session, so a few may stay nearly silent.
        busy += usize::from(fast.phone.capture.len() > 50);
        assert!(
            fast == slow,
            "{family} seed {seed} ({net:?}, {plan:?}): loops disagree"
        );
        plans.push(plan);
    }
    assert!(
        busy * 4 >= plans.len() * 3,
        "{family}: only {busy} busy sessions"
    );
    plans
}

/// Every one of the five fault kinds appears in some plan.
fn assert_covers_every_kind(plans: &[FaultPlan]) {
    for kind in [
        "dns_outage",
        "server_stall",
        "link_outage",
        "app_crash",
        "tech_switch",
    ] {
        assert!(
            plans
                .iter()
                .any(|p| p.events().iter().any(|e| e.kind.label() == kind)),
            "no plan injects {kind}"
        );
    }
}

#[test]
fn youtube_loops_agree() {
    let clip = VideoSpec {
        name: "clip".into(),
        duration: SimDuration::from_secs(8),
        bitrate_bps: 400e3,
    };
    let script = [
        (SimTime::from_secs(1), type_text("search_box", "")),
        (SimTime::from_millis(1_500), UiEvent::KeyEnter),
        (SimTime::from_secs(8), click("result_clip")),
    ];
    let plans = check_family(
        "youtube",
        &["api.youtube.com", "video.youtube.com", "ads.youtube.com"],
        &script,
        |net, seed| youtube_world(vec![clip.clone()], None, net, seed, false),
    );
    assert_covers_every_kind(&plans);
}

#[test]
fn facebook_with_peer_loops_agree() {
    let script = [
        (SimTime::from_secs(2), type_text("composer", "hello")),
        (SimTime::from_secs(3), click("post_button")),
        (
            SimTime::from_secs(12),
            UiEvent::Scroll {
                target: ViewSignature::by_id("news_feed"),
            },
        ),
    ];
    let plans = check_family(
        "facebook",
        &[
            "api.facebook.com",
            "graph.facebook.com",
            "push.facebook.com",
        ],
        &script,
        |net, seed| {
            facebook_world(
                FbVersion::ListView50,
                None,
                true,
                Some(SimDuration::from_secs(6)),
                PUSH_BYTES,
                net,
                seed,
                false,
            )
        },
    );
    assert_covers_every_kind(&plans);
}

#[test]
fn browser_loops_agree() {
    let script = [
        (
            SimTime::from_secs(1),
            type_text("url_bar", "http://www.example.com/"),
        ),
        (SimTime::from_millis(1_500), UiEvent::KeyEnter),
        (SimTime::from_secs(14), UiEvent::KeyEnter),
    ];
    let plans = check_family("browser", &["www.example.com"], &script, |net, seed| {
        browser_world(BrowserConfig::chrome(), net, seed)
    });
    assert_covers_every_kind(&plans);
}
