//! Property-based tests for the UI layout tree.

use std::collections::HashMap;
use std::sync::Arc;

use device::ui::{UiTree, View, ViewSignature};
use device::{App, AppCx, NetAttachment, Phone, UiEvent};
use netstack::dns::DNS_PORT;
use netstack::{IpAddr, SocketAddr};
use proptest::prelude::*;
use simcore::{DetRng, SimTime};

/// Build a random view tree from a node-count budget.
fn arb_view(depth: u32) -> impl Strategy<Value = View> {
    let leaf = (0u32..1000, any::<bool>()).prop_map(|(n, visible)| {
        let mut v = View::new("TextView", &format!("leaf{n}")).with_text(&format!("text{n}"));
        v.visible = visible;
        v
    });
    leaf.prop_recursive(depth, 24, 4, |inner| {
        (0u32..1000, prop::collection::vec(inner, 0..4)).prop_map(|(n, children)| {
            let mut v = View::new("LinearLayout", &format!("group{n}"));
            v.children = children;
            v
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `count` equals the number of nodes reachable by traversal.
    #[test]
    fn count_matches_traversal(root in arb_view(3)) {
        fn walk(v: &View) -> usize {
            1 + v.children.iter().map(walk).sum::<usize>()
        }
        prop_assert_eq!(root.count(), walk(&root));
    }

    /// Every node found by id satisfies the signature forms, and ids that
    /// exist are always findable.
    #[test]
    fn find_and_signature_agree(root in arb_view(3)) {
        fn collect_ids(v: &View, out: &mut Vec<String>) {
            out.push(v.id.clone());
            for c in &v.children {
                collect_ids(c, out);
            }
        }
        let mut ids = Vec::new();
        collect_ids(&root, &mut ids);
        for id in ids.iter().take(16) {
            let by_find = root.find(id);
            prop_assert!(by_find.is_some());
            let by_sig = root.find_signature(&ViewSignature::by_id(id));
            prop_assert!(by_sig.is_some());
            prop_assert_eq!(&by_find.unwrap().id, &by_sig.unwrap().id);
        }
        prop_assert!(root.find("definitely-not-a-real-id").is_none());
    }

    /// `any_text_contains` is exactly "some node's text contains needle".
    #[test]
    fn text_search_is_exhaustive(root in arb_view(3), probe in 0u32..1200) {
        fn any_manual(v: &View, needle: &str) -> bool {
            v.text.contains(needle) || v.children.iter().any(|c| any_manual(c, needle))
        }
        let needle = format!("text{probe}");
        prop_assert_eq!(root.any_text_contains(&needle), any_manual(&root, &needle));
    }

    /// Camera draw times are monotone and each records its `t_ui`, whatever
    /// the mutation order.
    #[test]
    fn camera_times_are_monotone(steps in prop::collection::vec(0u64..10_000, 1..60)) {
        let mut times = steps.clone();
        times.sort_unstable();
        let root = View::new("FrameLayout", "root")
            .with_child(View::new("TextView", "label"));
        let mut ui = UiTree::new(root, DetRng::seed_from_u64(3));
        for (i, t_ms) in times.iter().enumerate() {
            ui.set_text(SimTime::from_millis(*t_ms), "label", &format!("v{i}"));
        }
        let draws: Vec<SimTime> = ui.camera.iter().map(|(at, _)| at).collect();
        prop_assert_eq!(draws.len(), times.len());
        prop_assert!(draws.windows(2).all(|w| w[0] <= w[1]));
        for ((at, ev), t_ms) in ui.camera.iter().zip(times.iter()) {
            prop_assert_eq!(ev.changed_at, SimTime::from_millis(*t_ms));
            prop_assert!(at >= ev.changed_at);
        }
    }

    /// Snapshots never see later mutations of the live tree.
    #[test]
    fn snapshots_are_deep_copies(texts in prop::collection::vec("[a-z]{1,8}", 1..10)) {
        let root = View::new("FrameLayout", "root")
            .with_child(View::new("TextView", "label"));
        let mut ui = UiTree::new(root, DetRng::seed_from_u64(4));
        let mut snaps = Vec::new();
        for (i, text) in texts.iter().enumerate() {
            let now = SimTime::from_millis(i as u64);
            ui.set_text(now, "label", text);
            snaps.push(ui.observe(now).0);
        }
        for (snap, text) in snaps.iter().zip(texts.iter()) {
            prop_assert_eq!(&snap.find("label").unwrap().text, text);
        }
    }

    /// Over random mutate/observe schedules with freeze windows, the
    /// tree-free reads agree with `observe`, the observable tree is the
    /// one the live tree had at the observable revision, and held
    /// snapshots never change.
    #[test]
    fn shared_reads_agree_with_observe(
        freezes in prop::collection::vec((0u64..4_000, 1u64..1_000), 0..4),
        steps in prop::collection::vec((0u64..100, arb_step()), 1..80),
    ) {
        let root = View::new("FrameLayout", "root")
            .with_child(View::new("TextView", "label"))
            .with_child(View::new("android.widget.ListView", "feed"));
        let mut ui = UiTree::new(root.clone(), DetRng::seed_from_u64(5));
        for (from, len) in &freezes {
            ui.add_freeze(SimTime::from_millis(*from), SimTime::from_millis(from + len));
        }
        // The live tree after each revision, kept by the test itself.
        let mut shadow = root;
        let mut history = HashMap::from([(0u64, shadow.clone())]);
        let mut held: Vec<(Arc<View>, View)> = Vec::new();
        let mut t_ms = 0;
        for (dt, step) in &steps {
            t_ms += dt;
            let now = SimTime::from_millis(t_ms);
            match step {
                Step::Hold => {
                    let (snap, _) = ui.observe(now);
                    let copy = View::clone(&snap);
                    held.push((snap, copy));
                }
                Step::Release => {
                    if !held.is_empty() {
                        held.remove(0);
                    }
                }
                _ => {
                    ui.mutate(now, "step", |r| step.apply(r));
                    step.apply(&mut shadow);
                    history.insert(history.len() as u64, shadow.clone());
                }
            }
            let (seen, rev) = ui.observe(now);
            prop_assert_eq!(ui.revision(now), rev);
            prop_assert_eq!(ui.view_count(now), seen.count());
            prop_assert_eq!(&*seen, &history[&rev]);
            prop_assert_eq!(ui.root(), &shadow);
            for (snap, copy) in &held {
                prop_assert_eq!(&**snap, copy);
            }
        }
    }
}

/// One step of a random UI schedule.
#[derive(Debug, Clone)]
enum Step {
    /// Set the label's text.
    Text(String),
    /// Prepend an item to the feed.
    Prepend(String),
    /// Empty the feed.
    Clear,
    /// Take a snapshot and keep it alive.
    Hold,
    /// Drop the oldest held snapshot.
    Release,
}

impl Step {
    /// Apply a mutating step to a tree.
    fn apply(&self, root: &mut View) {
        match self {
            Step::Text(text) => root.find_mut("label").unwrap().text = text.clone(),
            Step::Prepend(text) => root
                .find_mut("feed")
                .unwrap()
                .children
                .insert(0, View::new("TextView", "item").with_text(text)),
            Step::Clear => root.find_mut("feed").unwrap().children.clear(),
            Step::Hold | Step::Release => {}
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    (0u32..8, "[a-z]{1,6}").prop_map(|(kind, text)| match kind {
        0 => Step::Text(text),
        1..=3 => Step::Prepend(text),
        4 => Step::Clear,
        5 | 6 => Step::Hold,
        _ => Step::Release,
    })
}

/// An app that does nothing: the test drives the layout tree directly.
struct Idle;

impl App for Idle {
    fn name(&self) -> &'static str {
        "idle"
    }
    fn start(&mut self, _cx: &mut AppCx) {}
    fn on_ui_event(&mut self, _ev: &UiEvent, _cx: &mut AppCx) {}
    fn tick(&mut self, _cx: &mut AppCx) {}
    fn next_wake(&self) -> Option<SimTime> {
        None
    }
}

fn idle_phone() -> Phone {
    let mut rng = DetRng::seed_from_u64(6);
    Phone::new(
        IpAddr::new(10, 0, 0, 2),
        SocketAddr::new(IpAddr::new(8, 8, 8, 8), DNS_PORT),
        NetAttachment::wifi(&mut rng),
        Box::new(Idle),
        rng.fork(2),
    )
}

/// Parse `phone` at `now`, check the parse cost against `twin` (a phone
/// with the same seed) given a fresh tree that is a plain copy of the
/// parsed one, and return the parsed view count. Equal costs mean the
/// cost followed the parsed tree's view count.
fn parsed_views(phone: &mut Phone, twin: &mut Phone, now: SimTime) -> usize {
    let (snap, cost) = phone.parse_ui(now);
    twin.ui = UiTree::new(View::clone(&snap), DetRng::seed_from_u64(7));
    let (_, twin_cost) = twin.parse_ui(now);
    assert_eq!(cost, twin_cost, "parse cost at {now}");
    snap.count()
}

#[test]
fn parse_cost_follows_the_observable_view_count() {
    let mut phone = idle_phone();
    let mut twin = idle_phone();
    let ms = SimTime::from_millis;
    assert_eq!(parsed_views(&mut phone, &mut twin, ms(0)), 1);
    for (i, text) in ["a", "bb", "ccc"].into_iter().enumerate() {
        phone
            .ui
            .prepend_item(ms(10 + i as u64), "root", "TextView", text);
    }
    assert_eq!(parsed_views(&mut phone, &mut twin, ms(20)), 4);
    // A crash clears the tree.
    phone.force_relaunch(ms(30), simcore::SimDuration::from_secs(1));
    assert_eq!(parsed_views(&mut phone, &mut twin, ms(40)), 1);
    phone.ui.prepend_item(ms(50), "root", "TextView", "d");
    // During a freeze the cost is the frozen tree's.
    phone.ui.add_freeze(ms(100), ms(200));
    phone.ui.prepend_item(ms(120), "root", "TextView", "e");
    phone.ui.prepend_item(ms(130), "root", "TextView", "f");
    assert_eq!(phone.ui.root().count(), 4);
    assert_eq!(parsed_views(&mut phone, &mut twin, ms(150)), 2);
    assert_eq!(parsed_views(&mut phone, &mut twin, ms(200)), 4);
}
