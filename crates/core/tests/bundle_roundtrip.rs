//! Property tests for the trace-bundle seam: every artifact a bundle can
//! hold must round-trip `Collection → disk → Collection` losslessly, and a
//! damaged bundle must fail with a structured [`TraceError`], never a
//! panic. Losslessness is what makes analyze-from-disk byte-identical to
//! the inline pipeline, so these properties guard the tentpole invariant.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use device::phone::CpuMeter;
use device::ui::ScreenEvent;
use netstack::packet::{IpPacket, Proto, TcpFlags, TcpHeader};
use netstack::pcap::{Direction, PacketRecord};
use netstack::{IpAddr, SocketAddr};
use proptest::prelude::*;
use qoe_doctor::bundle::{BEHAVIOR_MAGIC, CAMERA_MAGIC, CPU_MAGIC};
use qoe_doctor::{BehaviorRecord, Collection, CollectionSet, StartKind};
use radio::codec::{read_pdu_truth, read_qxdm, write_pdu_truth, write_qxdm};
use radio::qxdm::{PduRecord, QxdmLog, StatusRecord};
use radio::rlc::PduEvent;
use radio::rrc::{RrcState, RrcTransition};
use simcore::{RecordLog, SimDuration, SimTime};
use trace::{decode_artifact, encode_artifact, BundleMeta, TraceError, FORMAT_VERSION};

/// A fresh, unique scratch directory (cases within one property run
/// sequentially, but distinct properties may run in parallel test threads).
fn fresh_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qd-bundle-rt-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn meta(seed: u64, config_digest: u64) -> BundleMeta {
    BundleMeta {
        seed,
        config_digest,
        scenario: "proptest/bundle".into(),
        end: SimTime::ZERO,
    }
}

// ---- strategies --------------------------------------------------------
//
// The vendored proptest shim has no `prop_oneof`/`option::of`, so enums
// draw an index and Options pair a presence bool with an inner value.

fn st_time() -> impl Strategy<Value = SimTime> {
    (0u64..600_000_000).prop_map(SimTime::from_micros)
}

fn st_dur() -> impl Strategy<Value = SimDuration> {
    (0u64..5_000_000).prop_map(SimDuration::from_micros)
}

fn st_dir() -> impl Strategy<Value = Direction> {
    any::<bool>().prop_map(|up| {
        if up {
            Direction::Uplink
        } else {
            Direction::Downlink
        }
    })
}

/// A time-sorted [`RecordLog`] of up to `max - 1` elements (possibly
/// empty): `push` asserts non-decreasing timestamps, so draws are sorted
/// before insertion.
fn st_log<S>(element: S, max: usize) -> impl Strategy<Value = RecordLog<S::Value>>
where
    S: Strategy + 'static,
{
    prop::collection::vec((0u64..600_000_000u64, element), 0..max).prop_map(|mut drawn| {
        drawn.sort_by_key(|(at, _)| *at);
        let mut log = RecordLog::new();
        for (at, rec) in drawn {
            log.push(SimTime::from_micros(at), rec);
        }
        log
    })
}

fn st_behavior() -> impl Strategy<Value = BehaviorRecord> {
    (
        ("[a-z:_]{1,16}", st_time(), st_dur()),
        (0u8..2, st_dur(), any::<bool>()),
    )
        .prop_map(
            |((action, start, len), (kind, mean_parse, timed_out))| BehaviorRecord {
                action,
                start,
                end: start + len,
                start_kind: if kind == 0 {
                    StartKind::Trigger
                } else {
                    StartKind::Parse
                },
                mean_parse,
                timed_out,
            },
        )
}

fn st_sock() -> impl Strategy<Value = SocketAddr> {
    (any::<u32>(), any::<u16>()).prop_map(|(ip, port)| SocketAddr::new(IpAddr(ip), port))
}

fn st_tcp() -> impl Strategy<Value = Option<TcpHeader>> {
    (any::<bool>(), any::<u64>(), any::<u64>(), 0u8..16).prop_map(|(present, seq, ack, bits)| {
        present.then(|| TcpHeader {
            seq,
            ack,
            flags: TcpFlags {
                syn: bits & 1 != 0,
                ack: bits & 2 != 0,
                fin: bits & 4 != 0,
                rst: bits & 8 != 0,
            },
        })
    })
}

fn st_udp_payload() -> impl Strategy<Value = Option<Arc<[u8]>>> {
    (any::<bool>(), prop::collection::vec(any::<u8>(), 0..24))
        .prop_map(|(present, bytes)| present.then(|| Arc::from(bytes)))
}

fn st_packet() -> impl Strategy<Value = PacketRecord> {
    (
        (any::<u64>(), st_sock(), st_sock(), any::<bool>()),
        (
            st_tcp(),
            0u32..200_000,
            st_udp_payload(),
            prop::collection::vec((any::<u64>(), any::<u64>()), 0..4),
            st_dir(),
        ),
    )
        .prop_map(
            |((id, src, dst, is_tcp), (tcp, payload_len, udp_payload, markers, dir))| {
                PacketRecord {
                    dir,
                    pkt: IpPacket {
                        id,
                        src,
                        dst,
                        proto: if is_tcp { Proto::Tcp } else { Proto::Udp },
                        tcp,
                        payload_len,
                        udp_payload,
                        markers,
                    },
                }
            },
        )
}

fn st_rrc_state() -> impl Strategy<Value = RrcState> {
    (0u8..7).prop_map(|i| {
        [
            RrcState::Dch,
            RrcState::Fach,
            RrcState::Pch,
            RrcState::LteContinuous,
            RrcState::LteShortDrx,
            RrcState::LteLongDrx,
            RrcState::LteIdle,
        ][i as usize]
    })
}

fn st_rrc_transition() -> impl Strategy<Value = RrcTransition> {
    (st_rrc_state(), st_rrc_state()).prop_map(|(from, to)| RrcTransition { from, to })
}

fn st_li() -> impl Strategy<Value = Option<u16>> {
    (any::<bool>(), any::<u16>()).prop_map(|(present, v)| present.then_some(v))
}

fn st_pdu_record() -> impl Strategy<Value = PduRecord> {
    (
        (
            st_dir(),
            any::<u32>(),
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
        ),
        (st_li(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((dir, sn, payload_len, b0, b1), (li, poll, retransmission))| PduRecord {
                dir,
                sn,
                payload_len,
                first2: [b0, b1],
                li,
                poll,
                retransmission,
            },
        )
}

fn st_status() -> impl Strategy<Value = StatusRecord> {
    (st_dir(), any::<u32>()).prop_map(|(data_dir, acks_sn)| StatusRecord { data_dir, acks_sn })
}

fn st_qxdm() -> impl Strategy<Value = QxdmLog> {
    (
        st_log(st_rrc_transition(), 10),
        st_log(st_pdu_record(), 16),
        st_log(st_status(), 8),
    )
        .prop_map(|(rrc, pdus, statuses)| QxdmLog {
            rrc,
            pdus,
            statuses,
        })
}

fn st_pdu_event() -> impl Strategy<Value = PduEvent> {
    (
        st_pdu_record(),
        (
            (any::<u64>(), any::<u32>()),
            (any::<u64>(), any::<u32>()),
            0u8..3,
        ),
    )
        .prop_map(|(rec, (c0, c1, covers_len))| PduEvent {
            dir: rec.dir,
            sn: rec.sn,
            payload_len: rec.payload_len,
            first2: rec.first2,
            li: rec.li,
            poll: rec.poll,
            retransmission: rec.retransmission,
            covers: [c0, c1],
            covers_len,
        })
}

fn st_screen() -> impl Strategy<Value = ScreenEvent> {
    ("[a-z:_]{1,20}", st_time()).prop_map(|(label, changed_at)| ScreenEvent { label, changed_at })
}

fn st_cpu() -> impl Strategy<Value = CpuMeter> {
    (st_dur(), st_dur()).prop_map(|(app_busy, controller_busy)| CpuMeter {
        app_busy,
        controller_busy,
    })
}

/// An arbitrary collection. `cellular` gates qxdm + pdu_truth together,
/// the way a real attachment does: both present (cellular) or both absent
/// (WiFi) — the WiFi/`None` case is therefore exercised on roughly half
/// the draws, and pinned by a dedicated test below.
fn st_collection() -> impl Strategy<Value = Collection> {
    (
        (st_log(st_behavior(), 10), st_log(st_packet(), 16)),
        (any::<bool>(), st_qxdm(), st_log(st_pdu_event(), 12)),
        (st_log(st_screen(), 10), st_cpu(), 0u64..600_000_000),
    )
        .prop_map(
            |((behavior, trace), (cellular, qxdm, pdu_truth), (camera, cpu, end_us))| Collection {
                behavior,
                trace,
                qxdm: cellular.then_some(qxdm),
                pdu_truth: cellular.then_some(pdu_truth),
                camera,
                cpu,
                end: SimTime::from_micros(end_us),
            },
        )
}

// ---- per-artifact codec round trips ------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn behavior_artifact_round_trips(log in st_log(st_behavior(), 20)) {
        let bytes = encode_artifact(BEHAVIOR_MAGIC, FORMAT_VERSION, &log);
        let back: RecordLog<BehaviorRecord> =
            decode_artifact(&bytes, BEHAVIOR_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, log);
    }

    #[test]
    fn trace_artifact_round_trips(trace in st_log(st_packet(), 24)) {
        let bytes = netstack::pcap::write_trace(&trace);
        prop_assert_eq!(netstack::pcap::read_trace(&bytes).unwrap(), trace);
    }

    #[test]
    fn qxdm_artifact_round_trips(log in st_qxdm()) {
        prop_assert_eq!(read_qxdm(&write_qxdm(&log)).unwrap(), log);
    }

    #[test]
    fn pdu_truth_artifact_round_trips(truth in st_log(st_pdu_event(), 20)) {
        prop_assert_eq!(read_pdu_truth(&write_pdu_truth(&truth)).unwrap(), truth);
    }

    #[test]
    fn camera_artifact_round_trips(camera in st_log(st_screen(), 20)) {
        let bytes = encode_artifact(CAMERA_MAGIC, FORMAT_VERSION, &camera);
        let back: RecordLog<ScreenEvent> =
            decode_artifact(&bytes, CAMERA_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, camera);
    }

    #[test]
    fn cpu_artifact_round_trips(cpu in st_cpu()) {
        let bytes = encode_artifact(CPU_MAGIC, FORMAT_VERSION, &cpu);
        let back: CpuMeter = decode_artifact(&bytes, CPU_MAGIC, FORMAT_VERSION).unwrap();
        prop_assert_eq!(back, cpu);
    }
}

// ---- whole-bundle round trips ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn collection_round_trips_through_disk(
        col in st_collection(),
        seed in any::<u64>(),
        cfg in any::<u64>(),
    ) {
        let dir = fresh_dir("col");
        col.save(&dir, &meta(seed, cfg)).unwrap();
        let (back, got) = Collection::load(&dir).unwrap();
        prop_assert_eq!(&back, &col);
        prop_assert_eq!(got.seed, seed);
        prop_assert_eq!(got.config_digest, cfg);
        // save() pins the manifest's end to the collection's clock.
        prop_assert_eq!(got.end, col.end);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn collection_set_round_trips_through_disk(
        cols in prop::collection::vec(st_collection(), 1..4),
        seed in any::<u64>(),
    ) {
        use trace::BundleArtifact;
        let set = CollectionSet {
            items: cols
                .into_iter()
                .enumerate()
                .map(|(i, c)| (format!("session {i}"), c))
                .collect(),
        };
        let dir = fresh_dir("set");
        set.save_bundle(&dir, &meta(seed, 0)).unwrap();
        let (back, got) = CollectionSet::load_bundle(&dir).unwrap();
        prop_assert_eq!(&back, &set);
        prop_assert_eq!(got.seed, seed);
        let _ = fs::remove_dir_all(&dir);
    }
}

// ---- pinned edge cases -------------------------------------------------

/// A WiFi run has no QxDM log and no PDU truth; manifest-entry absence is
/// the canonical `None` encoding and must round-trip exactly.
#[test]
fn wifi_collection_round_trips_none_artifacts() {
    let mut behavior = RecordLog::new();
    behavior.push(
        SimTime::from_secs(1),
        BehaviorRecord {
            action: "page_load".into(),
            start: SimTime::from_secs(1),
            end: SimTime::from_secs(3),
            start_kind: StartKind::Trigger,
            mean_parse: SimDuration::from_millis(50),
            timed_out: false,
        },
    );
    let col = Collection {
        behavior,
        trace: RecordLog::new(),
        qxdm: None,
        pdu_truth: None,
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::from_secs(4),
    };
    let dir = fresh_dir("wifi");
    col.save(&dir, &meta(1, 2)).unwrap();
    let (back, _) = Collection::load(&dir).unwrap();
    assert_eq!(back, col);
    assert!(back.qxdm.is_none());
    assert!(back.pdu_truth.is_none());
    let _ = fs::remove_dir_all(&dir);
}

/// The degenerate bundle: every log empty, zero end time.
#[test]
fn empty_collection_round_trips() {
    let col = Collection {
        behavior: RecordLog::new(),
        trace: RecordLog::new(),
        qxdm: Some(QxdmLog::default()),
        pdu_truth: Some(RecordLog::new()),
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::ZERO,
    };
    let dir = fresh_dir("empty");
    col.save(&dir, &meta(0, 0)).unwrap();
    let (back, _) = Collection::load(&dir).unwrap();
    assert_eq!(back, col);
    let _ = fs::remove_dir_all(&dir);
}

// ---- damaged bundles fail structurally ---------------------------------

fn saved_bundle(tag: &str) -> PathBuf {
    let col = Collection {
        behavior: RecordLog::new(),
        trace: RecordLog::new(),
        qxdm: None,
        pdu_truth: None,
        camera: RecordLog::new(),
        cpu: CpuMeter::default(),
        end: SimTime::from_secs(9),
    };
    let dir = fresh_dir(tag);
    col.save(&dir, &meta(3, 4)).unwrap();
    dir
}

#[test]
fn truncated_manifest_is_a_structured_error() {
    let dir = saved_bundle("trunc");
    let manifest = dir.join("manifest.txt");
    let full = fs::read_to_string(&manifest).unwrap();
    // Cut mid-way through the fixed header fields.
    let cut = full.find("end_us").unwrap();
    fs::write(&manifest, &full[..cut]).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::Manifest { .. }) => {}
        other => panic!("expected a manifest error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_manifest_is_a_structured_error() {
    let dir = saved_bundle("garbage");
    fs::write(dir.join("manifest.txt"), "not a bundle at all\n").unwrap();
    match Collection::load(&dir) {
        Err(TraceError::BadMagic(_)) => {}
        other => panic!("expected a bad-magic error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn future_format_version_is_rejected() {
    let dir = saved_bundle("version");
    let manifest = dir.join("manifest.txt");
    let bumped = fs::read_to_string(&manifest)
        .unwrap()
        .replace("qoe-trace-bundle v1", "qoe-trace-bundle v99");
    fs::write(&manifest, bumped).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::BadVersion { found: 99, .. }) => {}
        other => panic!("expected a version error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn tampered_artifact_fails_its_checksum() {
    let dir = saved_bundle("tamper");
    let behavior = dir.join("behavior.bin");
    let mut bytes = fs::read(&behavior).unwrap();
    *bytes.last_mut().unwrap() ^= 0xFF;
    fs::write(&behavior, bytes).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::ChecksumMismatch { .. }) => {}
        other => panic!("expected a checksum error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn missing_artifact_file_is_a_structured_error() {
    let dir = saved_bundle("missing");
    fs::remove_file(dir.join("trace.pcapq")).unwrap();
    match Collection::load(&dir) {
        Err(TraceError::Io { .. }) => {}
        other => panic!("expected an io error, got {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}
