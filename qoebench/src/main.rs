//! Benchmark of the QoE Doctor reproduction.
//!
//! ```text
//! qoebench --workload <video-throttled|record-cold|reanalyze-warm>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! qoebench --bless
//! ```
//!
//! Each workload drives staged campaigns of the `repro` crate through the
//! public campaign API on one worker, as a closed loop with one caller: the
//! next pass starts when the previous one has finished. Passes repeat for
//! `--seconds`. Every job's row is checked (golden digests at the default
//! seed, agreement across passes and stage modes at any other seed).
//!
//! The last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. The line before it is a JSON detail
//! record (host fingerprint, samples, tail percentile, failures), also
//! written under `.bench_out/`. `--bless` rewrites `golden.txt`.

mod layers;
mod spans;
mod workload;

use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::{Duration, Instant};

use harness::{Json, StageMode};

use layers::{median, Metric};
use spans::{NoSpans, Recorder, Spans};
use workload::{
    run_camps, run_grids, CampaignOut, Checker, Expect, Golden, Grid, Workload, DEFAULT_SEED,
};

const GOLDEN: &str = include_str!("../golden.txt");

/// Span layer of the untraced passes of a traced run: one span per pass,
/// with nothing recorded inside it.
const UNTRACED: &str = "untraced";

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Passes a run can hold: the set-up builds this many inputs and the loop
/// ends when they run out, even before `--seconds` have passed.
const MAX_PASSES: usize = 128;

/// Metrics of `--trace 0`, in `BENCHMARK.json` order.
const END_TO_END: [&str; 4] = ["wall_s", "setup_s", "peak_rss_mb", "job_ok_ratio"];

/// Metrics of `--trace 1`, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 37] = [
    "harness.record_ms",
    "harness.analyze_ms",
    "harness.overhead_ms",
    "harness.job_max_ms",
    "harness.simulated",
    "harness.cache_hits",
    "trace.save_ms",
    "trace.load_ms",
    "trace.load_mb_per_s",
    "trace.bundle_bytes",
    "core.crosslayer_map_ms",
    "core.net_breakdown_ms",
    "core.app_ms",
    "core.behavior_records",
    "sim.sim_s",
    "sim.host_ms_per_sim_s",
    "netstack.packets",
    "radio.pdus",
    "radio.rrc_transitions",
    "device.ui_mutations",
    "device.parse_ui_us.player",
    "device.ui_revision_us.player",
    "device.next_wake_ns.player",
    "device.parse_ui_us.feed",
    "device.ui_mutate_us.feed",
    "radio.rlc_ns_per_pdu",
    "tracing_overhead_s",
    "self_ms.bench",
    "self_ms.harness",
    "self_ms.job",
    "self_ms.trace",
    "self_ms.core",
    "self_ms.sim",
    "self_ms.device",
    "self_ms.radio",
    "passes.untraced",
    "passes.traced",
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("qoebench: {msg}");
    eprintln!(
        "usage: qoebench --workload <video-throttled|record-cold|reanalyze-warm> \
         [--seed N] [--seconds S] [--trace 0|1]\n       qoebench --bless"
    );
    exit(2)
}

/// Parsed command line; `None` means `--bless`.
fn parse_args() -> Option<Args> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            return None;
        }
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&v).unwrap_or_else(|| usage(&format!("unknown workload {v}"))),
                )
            }
            "--seed" => {
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an integer"))
            }
            "--seconds" => {
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Some(Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let t_start = Instant::now();
    let args = parse_args();
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let Some(args) = args else {
        bless(&work);
        let _ = fs::remove_dir_all(&work);
        return;
    };

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let report = if args.trace {
        let mut rec = Recorder::new(t_start);
        let mut report = run(&args, &work, t_start, &mut rec);
        for (layer, ms) in rec.self_ms().into_iter().filter(|l| l.0 != UNTRACED) {
            report.metrics.push((self_name(layer), ms, "ms"));
        }
        let trace_file = out_dir.join(format!("{stem}.trace.json"));
        write(&trace_file, &rec.to_chrome_json(fingerprint()).pretty());
        report
            .detail
            .push(("trace_file", Json::from(trace_file.display().to_string())));
        report
    } else {
        run(&args, &work, t_start, &mut NoSpans)
    };
    let _ = fs::remove_dir_all(&work);

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<(String, Json)> = wanted
        .iter()
        .map(|name| {
            let (_, v, unit) = report
                .metrics
                .iter()
                .find(|m| m.0 == *name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (
                name.to_string(),
                Json::obj([("value", Json::Num(*v)), ("unit", Json::from(*unit))]),
            )
        })
        .collect();

    let check = &report.check;
    let mut detail = vec![
        ("workload".to_string(), Json::from(args.workload.name())),
        ("seed".to_string(), Json::from(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("fingerprint".to_string(), fingerprint()),
        ("golden_checked".to_string(), Json::Bool(check.has_golden())),
        ("attempted".to_string(), Json::from(check.attempted)),
        ("failed".to_string(), Json::from(check.failed)),
        (
            "job_fail_ratio".to_string(),
            Json::Num(check.failed as f64 / check.attempted.max(1) as f64),
        ),
        (
            "failures".to_string(),
            Json::arr(check.failures.iter().map(|f| Json::from(f.as_str()))),
        ),
    ];
    detail.extend(report.detail.into_iter().map(|(k, v)| (k.to_string(), v)));
    let detail = Json::Obj(detail).pretty();
    write(&out_dir.join(format!("{stem}.json")), &detail);
    println!("{}", one_line(&detail));

    let correct = check.failed == 0 && check.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(check.attempted)),
        ("failed", Json::from(check.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", one_line(&result.pretty()));
}

fn self_name(layer: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|n| n.strip_prefix("self_ms.") == Some(layer))
        .unwrap_or_else(|| panic!("span layer {layer} has no self_ms metric"))
}

/// `Json::pretty` output on one line (strings never contain raw newlines).
fn one_line(pretty: &str) -> String {
    pretty.lines().map(str::trim).collect::<Vec<_>>().join("")
}

fn write(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    fs::write(path, text).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

struct Report {
    metrics: Vec<Metric>,
    check: Checker,
    detail: Vec<(&'static str, Json)>,
}

/// Per-pass figures of the harness layer, from `CampaignRun`/`StageStats`.
struct PassStats {
    record_ms: f64,
    analyze_ms: f64,
    overhead_ms: f64,
    job_max_ms: f64,
    simulated: f64,
    cache_hits: f64,
}

impl PassStats {
    fn of(wall: Duration, outs: &[CampaignOut]) -> PassStats {
        let jobs = || outs.iter().flat_map(|o| &o.jobs);
        let job_sum: Duration = jobs().map(|j| j.wall).sum();
        let ms = |ns: u64| ns as f64 / 1e6;
        PassStats {
            record_ms: outs.iter().map(|o| ms(o.stages.record_wall_ns)).sum(),
            analyze_ms: outs.iter().map(|o| ms(o.stages.analyze_wall_ns)).sum(),
            overhead_ms: (wall.as_secs_f64() - job_sum.as_secs_f64()) * 1e3,
            job_max_ms: jobs()
                .map(|j| j.wall.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
            simulated: outs.iter().map(|o| o.stages.simulated as f64).sum(),
            cache_hits: outs.iter().map(|o| o.stages.cache_hits as f64).sum(),
        }
    }
}

/// One timed pass: every campaign of the workload, once.
fn pass<S: Spans>(
    grids: Vec<Grid>,
    mode: &StageMode,
    spans: &mut S,
    n: u32,
) -> (Duration, Vec<CampaignOut>) {
    spans.set_pass(n);
    let p = spans.open("pass", "bench");
    let t0 = Instant::now();
    let outs = run_grids(grids, mode, spans);
    let wall = t0.elapsed();
    spans.close(p);
    (wall, outs)
}

fn check_all(check: &mut Checker, what: &str, outs: &[CampaignOut], expect: Expect) {
    for o in outs {
        check.campaign(what, o, expect);
    }
}

fn run<S: Spans>(a: &Args, work: &Path, t_start: Instant, spans: &mut S) -> Report {
    let w = a.workload;
    let seed = a.seed;
    let mut check = Checker::new((seed == DEFAULT_SEED).then(|| Golden::parse(GOLDEN)));
    let top = spans.open(w.name(), "bench");

    // Set-up: what has to exist before the first timed pass: the inputs of
    // every pass (job grids built from the seed) and, for reanalyze-warm, a
    // cold recording of every bundle. The first set-up is measured from
    // process start and its products are the ones the passes use.
    let mut setup_s = Vec::new();
    let mut cache = PathBuf::new();
    let mut inputs = Vec::new();
    for i in 0..SETUPS {
        let t0 = if i == 0 { t_start } else { Instant::now() };
        let s = spans.open("setup", "bench");
        let dir = work.join(format!("setup-{i}"));
        let outs = match w {
            Workload::ReanalyzeWarm => run_camps(w, seed, &StageMode::Cached(dir.clone()), spans),
            Workload::VideoThrottled | Workload::RecordCold => Vec::new(),
        };
        let built: Vec<Vec<Grid>> = (0..MAX_PASSES).map(|_| w.inputs(seed)).collect();
        spans.close(s);
        setup_s.push(t0.elapsed().as_secs_f64());
        check_all(&mut check, "setup", &outs, Expect::Simulated);
        if i == 0 {
            cache = dir;
            inputs = built;
        } else if dir.exists() {
            fs::remove_dir_all(&dir).expect("remove extra set-up directory");
        }
    }
    inputs.reverse();

    // Timed passes, closed loop. A traced run alternates untraced and
    // traced passes, so it yields both medians.
    let loop_start = Instant::now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut traced_stats = Vec::new();
    let mut last_cold: Option<PathBuf> = None;
    for n in 0u32.. {
        let Some(grids) = inputs.pop() else { break };
        let traced = a.trace && n % 2 == 1;
        let mode = match w {
            Workload::VideoThrottled => StageMode::Inline,
            Workload::RecordCold => StageMode::Cached(work.join(format!("cold-{n}"))),
            Workload::ReanalyzeWarm => StageMode::Cached(cache.clone()),
        };
        let (wall, outs) = if traced {
            pass(grids, &mode, spans, n)
        } else {
            let t0 = Instant::now();
            let r = pass(grids, &mode, &mut NoSpans, n);
            spans.done(None, "pass", UNTRACED, t0, t0 + r.0);
            r
        };
        let expect = match w {
            Workload::ReanalyzeWarm => Expect::Cached,
            Workload::VideoThrottled | Workload::RecordCold => Expect::Simulated,
        };
        check_all(&mut check, &format!("pass {n}"), &outs, expect);
        if traced {
            traced_walls.push(wall.as_secs_f64());
            traced_stats.push(PassStats::of(wall, &outs));
        } else {
            walls.push(wall.as_secs_f64());
        }
        if let StageMode::Cached(dir) = &mode {
            if w == Workload::RecordCold {
                if let Some(prev) = last_cold.replace(dir.clone()) {
                    fs::remove_dir_all(prev).expect("remove previous cold directory");
                }
            }
        }
        let all: Vec<f64> = walls.iter().chain(&traced_walls).copied().collect();
        let kinds = !a.trace || (!walls.is_empty() && !traced_walls.is_empty());
        if kinds && loop_start.elapsed().as_secs_f64() + median(&all) > a.seconds {
            break;
        }
    }
    let peak_rss_mb = vm_hwm_kb() as f64 / 1024.0;

    // Cross-mode output check: the bundles the last cold pass wrote must
    // re-analyze to the same rows and, away from the golden seed, the
    // inline pipeline must agree too.
    if let Some(dir) = &last_cold {
        let outs = run_camps(w, seed, &StageMode::Cached(dir.clone()), &mut NoSpans);
        check_all(&mut check, "verify warm", &outs, Expect::Cached);
        if !check.has_golden() {
            let outs = run_camps(w, seed, &StageMode::Inline, &mut NoSpans);
            check_all(&mut check, "verify inline", &outs, Expect::Simulated);
        }
    }

    let mut metrics: Vec<Metric> = Vec::new();
    let mut detail: Vec<(&'static str, Json)> = vec![
        ("wall_s_samples", Json::nums(&walls)),
        ("wall_s_median", Json::Num(median(&walls))),
        ("wall_s_tail", tail(&walls)),
        ("setup_s_samples", Json::nums(&setup_s)),
        ("peak_rss_mb", Json::Num(peak_rss_mb)),
    ];
    if a.trace {
        let l = spans.open("layers", "bench");
        let root = match (&last_cold, w) {
            (Some(dir), _) => dir.clone(),
            (None, Workload::ReanalyzeWarm) => cache.clone(),
            (None, _) => {
                // video-throttled writes nothing: record its bundles once,
                // cold then warm, checking both against the inline rows.
                let root = work.join("bundles");
                for (what, expect) in [("record", Expect::Simulated), ("reanalyze", Expect::Cached)]
                {
                    let mode = StageMode::Cached(root.clone());
                    let outs = run_camps(w, seed, &mode, spans);
                    check_all(&mut check, what, &outs, expect);
                }
                root
            }
        };
        let mut layer = layers::bundle_layers(&root, &work.join("resave"), &mut check, spans);
        layer.extend(layers::replays(seed, spans));
        spans.close(l);

        let med =
            |f: fn(&PassStats) -> f64| median(&traced_stats.iter().map(f).collect::<Vec<_>>());
        let record_ms = med(|s| s.record_ms);
        let sim_s = layer
            .iter()
            .find(|m| m.0 == "sim.sim_s")
            .expect("sim.sim_s")
            .1;
        metrics.extend([
            ("harness.record_ms", record_ms, "ms"),
            ("harness.analyze_ms", med(|s| s.analyze_ms), "ms"),
            ("harness.overhead_ms", med(|s| s.overhead_ms), "ms"),
            ("harness.job_max_ms", med(|s| s.job_max_ms), "ms"),
            ("harness.simulated", med(|s| s.simulated), "count"),
            ("harness.cache_hits", med(|s| s.cache_hits), "count"),
            ("sim.host_ms_per_sim_s", record_ms / sim_s, "ms/s"),
            (
                "tracing_overhead_s",
                median(&traced_walls) - median(&walls),
                "s",
            ),
            ("passes.untraced", walls.len() as f64, "count"),
            ("passes.traced", traced_walls.len() as f64, "count"),
        ]);
        metrics.extend(layer);
        detail.push(("traced_wall_s_samples", Json::nums(&traced_walls)));
    } else {
        metrics.extend([
            ("wall_s", median(&walls), "s"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", peak_rss_mb, "MB"),
            (
                "job_ok_ratio",
                1.0 - check.failed as f64 / check.attempted.max(1) as f64,
                "ratio",
            ),
        ]);
    }
    spans.close(top);
    Report {
        metrics,
        check,
        detail,
    }
}

/// The highest percentile with at least ten samples beyond it, with the
/// sample count; `null` below eleven samples.
fn tail(v: &[f64]) -> Json {
    let n = v.len();
    if n < 11 {
        return Json::obj([
            ("n", Json::from(n)),
            ("percentile", Json::Null),
            ("value", Json::Null),
        ]);
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let k = n - 10;
    Json::obj([
        ("n", Json::from(n)),
        ("percentile", Json::Num(100.0 * k as f64 / n as f64)),
        ("value", Json::Num(s[k - 1])),
    ])
}

/// Peak resident set size of this process (kB).
fn vm_hwm_kb() -> u64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Host, toolchain and source identity. Results with different
/// fingerprints are not compared.
fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("nproc", Json::from(nproc)),
        ("cpu", Json::from(cpu)),
        ("rustc", Json::from(env!("QOEBENCH_RUSTC"))),
        ("profile", Json::from(env!("QOEBENCH_PROFILE"))),
        (
            "commit",
            Json::from(git_head().unwrap_or_else(|| "none".to_string())),
        ),
        (
            "source_digest",
            Json::from(format!("{:016x}", source_digest())),
        ),
    ])
}

/// Commit checked out in the current directory, read from `.git` without
/// running git (the benchmark may run from a plain copy of the tree).
fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(r)) {
        return Some(id.trim().to_string());
    }
    fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
}

/// FNV-1a over the measured sources (workspace manifests, `crates/`,
/// this package), in path order: identifies the code when there is no
/// commit.
fn source_digest() -> u64 {
    fn walk(p: &Path, out: &mut Vec<PathBuf>) {
        if p.is_dir() {
            let mut entries: Vec<PathBuf> = fs::read_dir(p)
                .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
                .unwrap_or_default();
            entries.sort();
            for e in entries.iter().filter(|e| !e.ends_with("target")) {
                walk(e, out);
            }
        } else if p.is_file() {
            out.push(p.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "qoebench/src",
        "qoebench/Cargo.toml",
    ] {
        walk(Path::new(root), &mut files);
    }
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(fs::read(&f).unwrap_or_default());
    }
    workload::fnv(&bytes)
}

/// Regenerate `golden.txt` at the default seed. Every workload's campaigns
/// run inline, cold-cached and warm-cached; the rows of the three modes
/// must agree before any digest is written.
fn bless(work: &Path) {
    let seed = DEFAULT_SEED;
    let mut check = Checker::new(None);
    let mut golden = Golden::default();
    for w in [Workload::VideoThrottled, Workload::RecordCold] {
        let root = work.join(w.name());
        let runs = [
            (StageMode::Inline, Expect::Simulated),
            (StageMode::Cached(root.clone()), Expect::Simulated),
            (StageMode::Cached(root.clone()), Expect::Cached),
        ];
        for (mode, expect) in runs {
            let outs = run_camps(w, seed, &mode, &mut NoSpans);
            check_all(&mut check, w.name(), &outs, expect);
            for o in &outs {
                for j in &o.jobs {
                    if let Ok(row) = &j.row {
                        golden.add_row(&o.name, &j.label, row);
                    }
                }
            }
        }
        for b in layers::find_bundles(&root) {
            let (col, _) = qoe_doctor::Collection::load(&b.dir).expect("bundle just recorded");
            golden.add_counts(&b.campaign, &b.job, layers::counts(&b.dir, &col));
        }
    }
    if check.failed > 0 {
        eprintln!("qoebench: modes disagree, golden file not written:");
        for f in &check.failures {
            eprintln!("  {f}");
        }
        exit(1);
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden.txt");
    write(&path, &golden.render());
    eprintln!(
        "wrote {} ({} jobs checked)",
        path.display(),
        check.attempted
    );
}
