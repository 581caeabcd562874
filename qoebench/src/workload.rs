//! The three workloads: which staged campaigns each runs, in which stage
//! mode, and the output check applied to every job of every pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use harness::{CampaignRun, Outcome, Record, StageMode, StageStats, StagedCampaign};
use qoe_doctor::Collection;
use repro::exp71::Table3Part;
use repro::exp72::PostRun;
use repro::exp74::UpdateRun;
use repro::exp75::WatchRun;

use crate::spans::Spans;

/// Seed of the committed golden digests (the repository's default seed).
pub const DEFAULT_SEED: u64 = 20140705;

/// fig17 videos per cell: the `--quick` scale.
const VIDEOS: usize = 4;
/// Full (default) scale of the three record/analyze campaigns.
const POST_REPS: usize = 15;
const UPDATES: usize = 30;
const ACCURACY_REPS: usize = 30;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// fig17 at `--quick` scale, inline: UI polling and the runner loop.
    VideoThrottled,
    /// fig7_8, fig14_16 and table3_fig6, cached on an empty directory:
    /// UI writes, RLC segmentation, bundle encoding.
    RecordCold,
    /// The same campaigns cached over a filled directory: bundle decoding
    /// and the analyzers, no simulation.
    ReanalyzeWarm,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::VideoThrottled,
        Workload::RecordCold,
        Workload::ReanalyzeWarm,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VideoThrottled => "video-throttled",
            Workload::RecordCold => "record-cold",
            Workload::ReanalyzeWarm => "reanalyze-warm",
        }
    }

    /// Workload named `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The inputs of one pass: the job grid of every campaign of the
    /// workload for `seed`, in run order.
    pub fn inputs(self, seed: u64) -> Vec<Grid> {
        match self {
            Workload::VideoThrottled => {
                vec![Grid::Fig17(repro::exp75::staged_fig17(VIDEOS, seed))]
            }
            Workload::RecordCold | Workload::ReanalyzeWarm => vec![
                Grid::Posts(repro::exp72::staged(POST_REPS, seed)),
                Grid::Updates(repro::exp74::staged(UPDATES, seed)),
                Grid::Table3(repro::exp71::staged(ACCURACY_REPS, seed)),
            ],
        }
    }
}

/// One finished job.
pub struct JobOut {
    /// Job label.
    pub label: String,
    /// Host wall time of the job.
    pub wall: Duration,
    /// `Record::row()`, or why the job produced none.
    pub row: Result<String, String>,
}

/// One finished campaign.
pub struct CampaignOut {
    /// Campaign name.
    pub name: String,
    /// When the benchmark started lowering the campaign.
    pub start: Instant,
    /// Lowering plus `Campaign::run`.
    pub wall: Duration,
    /// Jobs in job order.
    pub jobs: Vec<JobOut>,
    /// Stage counters of the run.
    pub stages: StageStats,
}

/// A campaign's job grid, built from the seed and not yet run: the input
/// a pass hands to the program.
pub enum Grid {
    /// `exp75::staged_fig17` (Fig. 17 throttled video).
    Fig17(StagedCampaign<Collection, WatchRun>),
    /// `exp72::staged` (Figs. 7–8 post uploads).
    Posts(StagedCampaign<Collection, PostRun>),
    /// `exp74::staged` (Figs. 14–16 feed updates).
    Updates(StagedCampaign<Collection, UpdateRun>),
    /// `exp71::staged` (Table 3 / Fig. 6 accuracy and overhead).
    Table3(StagedCampaign<Collection, Table3Part>),
}

impl Grid {
    /// Lower the grid to `mode` and run it on one worker.
    pub fn run(self, mode: &StageMode) -> CampaignOut {
        let start = Instant::now();
        match self {
            Grid::Fig17(g) => collect(start, g.into_campaign(mode).run(1)),
            Grid::Posts(g) => collect(start, g.into_campaign(mode).run(1)),
            Grid::Updates(g) => collect(start, g.into_campaign(mode).run(1)),
            Grid::Table3(g) => collect(start, g.into_campaign(mode).run(1)),
        }
    }
}

fn collect<T: Record>(start: Instant, run: CampaignRun<T>) -> CampaignOut {
    let wall = start.elapsed();
    let stages = run.stages.expect("staged campaigns report stage counters");
    let jobs = run
        .jobs
        .into_iter()
        .map(|j| JobOut {
            label: j.label,
            wall: j.wall,
            row: match j.outcome {
                Outcome::Ok(r) | Outcome::Retried { row: r, .. } => Ok(r.row()),
                Outcome::Faulted { reason, .. } => Err(format!("faulted: {reason}")),
                Outcome::Panicked(msg) => Err(format!("panicked: {msg}")),
            },
        })
        .collect();
    CampaignOut {
        name: run.name,
        start,
        wall,
        jobs,
        stages,
    }
}

/// Run the grids of one pass, recording campaign spans and job spans under
/// the innermost open span. Job spans are laid end to end from the campaign
/// start with `JobResult::wall` (one worker runs jobs in order); what the
/// campaign span covers beyond them is harness overhead.
pub fn run_grids<S: Spans>(grids: Vec<Grid>, mode: &StageMode, spans: &mut S) -> Vec<CampaignOut> {
    grids
        .into_iter()
        .map(|g| {
            let out = g.run(mode);
            let cs = spans.done(None, &out.name, "harness", out.start, out.start + out.wall);
            let mut at = out.start;
            for j in &out.jobs {
                spans.done(
                    Some(cs),
                    &format!("job {}", j.label),
                    "job",
                    at,
                    at + j.wall,
                );
                at += j.wall;
            }
            out
        })
        .collect()
}

/// Build and run every campaign of `w` once (untimed steps: set-up
/// recording, cross-mode checks, the traced run's bundles).
pub fn run_camps<S: Spans>(
    w: Workload,
    seed: u64,
    mode: &StageMode,
    spans: &mut S,
) -> Vec<CampaignOut> {
    run_grids(w.inputs(seed), mode, spans)
}

/// FNV-1a 64 of a row, the golden digest.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Exact per-job counts read from one trace bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Bytes of every file in the bundle directory.
    pub bundle_bytes: u64,
    /// AppBehaviorLog records.
    pub behavior_records: u64,
    /// Simulated session length (µs).
    pub sim_us: u64,
    /// Captured IP packets.
    pub packets: u64,
    /// RLC PDUs transmitted (ground-truth coverage log).
    pub pdus: u64,
    /// RRC state transitions logged by QxDM.
    pub rrc_transitions: u64,
    /// Camera (screen ground-truth) events: one per UI mutation drawn.
    pub ui_mutations: u64,
}

impl Counts {
    fn fields(&self) -> [u64; 7] {
        [
            self.bundle_bytes,
            self.behavior_records,
            self.sim_us,
            self.packets,
            self.pdus,
            self.rrc_transitions,
            self.ui_mutations,
        ]
    }

    fn from_fields(f: &[u64]) -> Option<Counts> {
        match *f {
            [bundle_bytes, behavior_records, sim_us, packets, pdus, rrc_transitions, ui_mutations] => {
                Some(Counts {
                    bundle_bytes,
                    behavior_records,
                    sim_us,
                    packets,
                    pdus,
                    rrc_transitions,
                    ui_mutations,
                })
            }
            _ => None,
        }
    }
}

/// Golden digests and counts at [`DEFAULT_SEED`], keyed by
/// `(campaign, job label)`.
#[derive(Default)]
pub struct Golden {
    rows: BTreeMap<(String, String), u64>,
    counts: BTreeMap<(String, String), Counts>,
}

impl Golden {
    /// Parse `golden.txt`: tab-separated `row` and `count` lines.
    pub fn parse(text: &str) -> Golden {
        let mut g = Golden::default();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let f: Vec<&str> = line.split('\t').collect();
            let key = || (f[1].to_string(), f[2].to_string());
            match f[0] {
                "row" if f.len() == 4 => {
                    let d = u64::from_str_radix(f[3], 16).expect("golden row digest is hex");
                    g.rows.insert(key(), d);
                }
                "count" => {
                    let nums: Vec<u64> = f[3..]
                        .iter()
                        .map(|n| n.parse().expect("golden count is a number"))
                        .collect();
                    let c = Counts::from_fields(&nums).expect("golden count line has 7 counts");
                    g.counts.insert(key(), c);
                }
                _ => panic!("malformed golden line: {line}"),
            }
        }
        g
    }

    /// Serialize in the format [`Golden::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = format!(
            "# Golden outputs at seed {DEFAULT_SEED}: FNV-1a 64 of each job's Record::row(),\n\
             # and exact bundle counts keyed by bundle directory (bytes, behavior records,\n\
             # sim us, packets, PDUs, RRC transitions, camera events). Regenerate with --bless.\n"
        );
        for ((c, l), d) in &self.rows {
            out += &format!("row\t{c}\t{l}\t{d:016x}\n");
        }
        for ((c, l), n) in &self.counts {
            let nums: Vec<String> = n.fields().iter().map(u64::to_string).collect();
            out += &format!("count\t{c}\t{l}\t{}\n", nums.join("\t"));
        }
        out
    }

    /// Record a row digest.
    pub fn add_row(&mut self, campaign: &str, label: &str, row: &str) {
        self.rows
            .insert((campaign.into(), label.into()), fnv(row.as_bytes()));
    }

    /// Record a job's bundle counts.
    pub fn add_counts(&mut self, campaign: &str, label: &str, c: Counts) {
        self.counts.insert((campaign.into(), label.into()), c);
    }
}

/// Expected stage counters of a campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Every job simulated, no cache hits (inline, record, cold cache).
    Simulated,
    /// Every job served from the cache, nothing simulated (warm cache).
    Cached,
}

/// Output check of every job the run executes. At [`DEFAULT_SEED`] rows and
/// counts are compared against the golden file; at any other seed each
/// `(campaign, label)` must produce the same row in every pass and every
/// stage mode the run exercises.
pub struct Checker {
    golden: Option<Golden>,
    seen: BTreeMap<(String, String), String>,
    /// Jobs checked.
    pub attempted: u64,
    /// Jobs that failed, faulted, panicked or produced a wrong output.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
}

impl Checker {
    /// Checker against `golden`, or, without one, against the first row
    /// each job produced in this run.
    pub fn new(golden: Option<Golden>) -> Checker {
        Checker {
            golden,
            seen: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Whether rows are checked against golden digests.
    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(msg);
        }
    }

    /// Check every job of `out` (`what` names the pass or step).
    pub fn campaign(&mut self, what: &str, out: &CampaignOut, expect: Expect) {
        let n = out.jobs.len();
        let s = &out.stages;
        let counters_ok = match expect {
            Expect::Simulated => s.simulated == n && s.cache_hits == 0,
            Expect::Cached => s.simulated == 0 && s.cache_hits == n,
        };
        for j in &out.jobs {
            self.attempted += 1;
            let key = (out.name.clone(), j.label.clone());
            let row = match &j.row {
                Ok(r) => r,
                Err(e) => {
                    self.fail(format!("{what}: {}/{}: {e}", out.name, j.label));
                    continue;
                }
            };
            if !counters_ok {
                self.fail(format!(
                    "{what}: {}: stage counters simulated={} cache_hits={} for {n} jobs, expected {expect:?}",
                    out.name, s.simulated, s.cache_hits
                ));
                continue;
            }
            let ok = match &self.golden {
                Some(g) => g.rows.get(&key) == Some(&fnv(row.as_bytes())),
                None => self.seen.entry(key).or_insert_with(|| row.clone()) == row,
            };
            if !ok {
                self.fail(format!(
                    "{what}: {}/{}: row differs from reference",
                    out.name, j.label
                ));
            }
        }
    }

    /// Check one bundle's exact counts against the golden file (default
    /// seed only; at other seeds counts are reported, not checked). The
    /// bundle's job was already counted as attempted by its pass.
    pub fn counts(&mut self, campaign: &str, label: &str, c: &Counts) {
        let Some(g) = &self.golden else { return };
        let want = g
            .counts
            .get(&(campaign.to_string(), label.to_string()))
            .copied();
        if want != Some(*c) {
            self.fail(format!(
                "bundle {campaign}/{label}: counts {c:?}, golden {want:?}"
            ));
        }
    }
}
