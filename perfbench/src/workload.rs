//! The four workloads: the campaigns each one cycles through, what one
//! timed pass does, and the correctness gate every pass must clear.

use crate::victim::Victim;
use fault_sneaking::attack::campaign::{CampaignReport, CampaignSpec, Scenario, SparsityBudget};
use fault_sneaking::attack::eval::attacked_head;
use fault_sneaking::attack::{
    AttackConfig, AttackResult, Campaign, ParamSelection, Precision, QuantizedSelection,
    StealthObjective,
};
use fault_sneaking::defense::{ArenaReport, DefenseSuite, StealthArena};
use fault_sneaking::harness::proto::ShardJob;
use fault_sneaking::harness::supervisor::ExecutionLog;
use fault_sneaking::harness::{
    ExecutorConfig, FaultDirective, FaultKind, FaultPlanner, ShardedCampaign,
};
use fault_sneaking::memfault::{DramGeometry, FaultPlan, QuantFaultPlan};
use fault_sneaking::nn::head::FcHead;
use fault_sneaking::nn::quant::QuantizedHead;
use fault_sneaking::nn::FeatureCache;
use fault_sneaking::telemetry;
use fault_sneaking::tensor::hash::Fnv1a;
use fault_sneaking::tensor::parallel::split_ranges;
use std::time::Duration;

/// Test rows the defense suite calibrates its accuracy and drift probes
/// on, and the held-out rows of its second drift probe.
const PROBE_ROWS: usize = 60;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// f32 grid on the last FC layer: ADMM and the objective dominate.
    GridLast,
    /// The grid on every FC layer: the head-wide gemm backward dominates
    /// and scenario costs are skewed.
    GridAllLayers,
    /// int8 stealth campaign, fault-plan compilation, and scoring
    /// against the randomized defense suite.
    StealthInt8Arena,
    /// Cheap scenarios across supervised worker processes over pipes,
    /// with one crash and one corrupt frame injected per pass.
    ShardedPipe,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::GridLast,
        Workload::GridAllLayers,
        Workload::StealthInt8Arena,
        Workload::ShardedPipe,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridLast => "grid_last",
            Workload::GridAllLayers => "grid_all_layers",
            Workload::StealthInt8Arena => "stealth_int8_arena",
            Workload::ShardedPipe => "sharded_pipe",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the campaign attacks int8 storage.
    pub fn int8(self) -> bool {
        self == Workload::StealthInt8Arena
    }

    /// The campaigns of one cycle of passes: the workload's
    /// `S × K × {ℓ0, ℓ2}` grid, one campaign per group of working-set
    /// draws derived from `seed`. Passes rotate through the cycle, so a
    /// pass stays short while the quality figures average every draw.
    pub fn cycle(self, seed: u64) -> Vec<CampaignSpec> {
        // (S values, K values, iterations, campaigns, draws per campaign)
        let (s, k, iterations, campaigns, draws): (&[usize], &[usize], _, u64, u64) = match self {
            Workload::GridLast => (&[1, 4], &[0, 16, 64], 400, 8, 1),
            Workload::GridAllLayers => (&[1, 4], &[0, 16], 50, 12, 1),
            Workload::StealthInt8Arena => (&[1, 2], &[8, 32], 60, 16, 1),
            Workload::ShardedPipe => (&[1, 2], &[8, 32], 30, 4, 4),
        };
        let lambda = AttackConfig::default().lambda;
        (0..campaigns)
            .map(|c| {
                let spec = CampaignSpec::grid(s.to_vec(), k.to_vec())
                    .with_budgets(vec![SparsityBudget::l0(lambda), SparsityBudget::l2(lambda)])
                    .with_seeds(
                        (0..draws)
                            .map(|i| seed.wrapping_add((c * draws + i) << 32))
                            .collect(),
                    )
                    .with_config(AttackConfig {
                        iterations,
                        ..AttackConfig::default()
                    });
                if self != Workload::StealthInt8Arena {
                    return spec;
                }
                let spec = spec.with_weights(40.0, 1.0);
                let stealth = StealthObjective::new(16, 0.1, geometry(), 0.5).with_block_cap(32);
                CampaignSpec {
                    base: AttackConfig {
                        kappa: 4.0,
                        ..spec.base.clone()
                    },
                    ..spec
                }
                .with_precision(Precision::Int8)
                .with_stealth(Some(stealth))
                .with_suite_seed(Some(audit_seed(seed)))
            })
            .collect()
    }

    fn selection(self, head: &FcHead) -> ParamSelection {
        match self {
            Workload::GridAllLayers => ParamSelection::all_layers(head),
            _ => ParamSelection::last_layer(head),
        }
    }
}

/// The DRAM slice the parity monitors and the stealth planner model.
fn geometry() -> DramGeometry {
    DramGeometry {
        banks: 4,
        rows_per_bank: 4096,
        row_bytes: 256,
    }
}

/// Audit-schedule seed of the randomized defense suite.
fn audit_seed(seed: u64) -> u64 {
    seed ^ 0xAD17_5EED
}

/// The fixed fault plan of `sharded_pipe`: the first seeded planner
/// (searching seeds from 0) whose first attempts crash shard 0, corrupt
/// a frame of shard 1, leave any further shard clean, and never stall —
/// a stall would sleep past the deadline and swamp the data path. Every
/// retry runs clean. Returns the planner's seed and the planner.
pub fn fixed_planner(scenarios: usize, shards: usize, deadline: Duration) -> (u64, FaultPlanner) {
    let ranges = split_ranges(scenarios, shards);
    let wanted = |shard: usize, d: Option<FaultDirective>| match (shard, d) {
        (0, Some(FaultDirective::KillAfter(_))) => true,
        (
            1,
            Some(
                FaultDirective::TruncateFrame(_)
                | FaultDirective::FlipBit { .. }
                | FaultDirective::DuplicateFrame(_),
            ),
        ) => true,
        (s, None) => s >= 2,
        _ => false,
    };
    (0u64..)
        .map(|s| (s, FaultPlanner::seeded(s)))
        .find(|(_, p)| {
            ranges.iter().enumerate().all(|(shard, r)| {
                wanted(shard, p.directive(shard, 0, deadline, r.len()))
                    && p.directive(shard, 1, deadline, r.len()).is_none()
            })
        })
        .expect("some seed yields the fixed fault plan")
}

/// Everything one pass produced.
#[derive(Debug, Clone)]
pub struct PassOut {
    /// The campaign report (merged across shards for `sharded_pipe`).
    pub report: CampaignReport,
    /// The detector matrix, when the pass scores against the suite.
    pub arena: Option<ArenaReport>,
    /// Bit flips of the compiled fault plans, when the pass compiles.
    pub bit_flips: u64,
    /// The supervisor's log, when the pass runs sharded.
    pub log: Option<ExecutionLog>,
}

impl PassOut {
    /// Digest of the pass's results: the report fingerprint, the arena
    /// fingerprint, and the compiled flip count. Logs are excluded: they
    /// describe how a result was produced, not what it is.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.report.fingerprint());
        h.write_u64(self.arena.as_ref().map_or(0, ArenaReport::fingerprint));
        h.write_u64(self.bit_flips);
        h.finish()
    }
}

/// Attack-quality figures of a run, exact for a given seed.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Mean share of the `S` designated faults that landed.
    pub success_rate: f64,
    /// Mean share of keep-set images that kept their labels.
    pub keep_rate: f64,
    /// Mean `‖δ‖₀`.
    pub mean_l0: f64,
    /// Mean `‖δ‖₂`.
    pub mean_l2: f64,
    /// Mean test accuracy of the attacked model over the clean model's.
    pub test_acc_retained: f64,
}

/// What the benchmark keeps of a campaign's reference result: the
/// fingerprint every later pass must match, and the figures reported
/// from it. Keeping summaries instead of reports keeps the reference
/// δs out of the resident set that `peak_rss_mb` measures.
#[derive(Debug, Clone)]
pub struct Summary {
    /// [`PassOut::fingerprint`] of the reference.
    pub fingerprint: u64,
    /// Quality over the campaign's scenarios.
    pub quality: Quality,
    /// Detection rate of each monitor of the suite, when the campaign
    /// was scored.
    pub detect_rates: Option<Vec<f64>>,
    /// ADMM iterations over the scenarios.
    pub iterations: usize,
    /// Scenarios whose ADMM loop converged before the cap.
    pub converged: usize,
    /// Bit flips of the compiled fault plans.
    pub bit_flips: u64,
}

/// Quality over every scenario of the summarized campaigns. All
/// campaigns of a cycle have as many scenarios, so means of campaign
/// means are means over scenarios.
pub fn quality(summaries: &[Summary]) -> Quality {
    let mean = |f: fn(&Quality) -> f64| {
        summaries.iter().map(|s| f(&s.quality)).sum::<f64>() / summaries.len() as f64
    };
    Quality {
        success_rate: mean(|q| q.success_rate),
        keep_rate: mean(|q| q.keep_rate),
        mean_l0: mean(|q| q.mean_l0),
        mean_l2: mean(|q| q.mean_l2),
        test_acc_retained: mean(|q| q.test_acc_retained),
    }
}

/// The highest detection rate any monitor of the suite reaches over the
/// scenarios of the scored campaigns.
///
/// # Panics
///
/// Panics if no summary was scored against the suite.
pub fn detect_rate(summaries: &[Summary]) -> f64 {
    let scored: Vec<&Vec<f64>> = summaries
        .iter()
        .filter_map(|s| s.detect_rates.as_ref())
        .collect();
    assert!(
        !scored.is_empty(),
        "no campaign was scored against the suite"
    );
    (0..scored[0].len())
        .map(|d| scored.iter().map(|r| r[d]).sum::<f64>() / scored.len() as f64)
        .fold(0.0, f64::max)
}

/// A workload bound to its victim: the campaign, the defense arena and,
/// per workload, the int8 selection or the sharded executor.
pub struct Runner<'a> {
    /// Which workload this is.
    pub workload: Workload,
    /// The campaigns passes rotate through; pass `i` runs campaign
    /// `i % specs.len()`. All have the same number of scenarios.
    pub specs: Vec<CampaignSpec>,
    /// The in-process campaign (the pass itself on the `grid_*`
    /// workloads, the reference elsewhere).
    pub campaign: Campaign<'a>,
    /// The randomized defense suite bound to the deployed head.
    pub arena: StealthArena<'a>,
    victim: &'a Victim,
    selection: ParamSelection,
    /// The head the deployed model runs (dequantized for int8).
    deployed: &'a FcHead,
    theta0: Vec<f32>,
    int8: Option<Int8Storage>,
    sharded: Option<Sharded<'a>>,
}

struct Int8Storage {
    qsel: QuantizedSelection,
    /// Selection coordinates stored as f32 words (biases), with their
    /// clean values.
    bias_idx: Vec<usize>,
    bias0: Vec<f32>,
}

struct Sharded<'a> {
    campaign: ShardedCampaign<'a>,
    config: ExecutorConfig,
    planner_seed: u64,
    expected_crash: usize,
    expected_corrupt: usize,
}

impl<'a> Runner<'a> {
    /// Binds `workload` to `victim` at `shards` worker processes (used
    /// only by `sharded_pipe`). Calibrating the randomized suite sits in
    /// the `bench.calibrate` span.
    pub fn new(workload: Workload, victim: &'a Victim, seed: u64, shards: usize) -> Runner<'a> {
        let specs = workload.cycle(seed);
        let n = specs[0].len();
        let head = &victim.model.head;
        let selection = workload.selection(head);
        let deployed = victim.base_head(workload.int8());
        let campaign = Campaign::new(
            head,
            selection.clone(),
            victim.pool.clone(),
            victim.pool_labels.clone(),
        );
        let suite = {
            let _s = telemetry::span("bench.calibrate");
            let probe_rows: Vec<usize> = (0..PROBE_ROWS).collect();
            let holdout_rows: Vec<usize> = (PROBE_ROWS..2 * PROBE_ROWS).collect();
            let test = FeatureCache::from_features(victim.test.clone());
            DefenseSuite::randomized(
                deployed,
                &FeatureCache::from_features(test.gather(&probe_rows)),
                &victim.test_labels[..PROBE_ROWS],
                &FeatureCache::from_features(test.gather(&holdout_rows)),
                geometry(),
                0.25,
                0.75,
                0.75,
                audit_seed(seed),
            )
        };
        let arena = StealthArena::new(deployed, selection.clone(), suite)
            .with_precision(specs[0].precision);
        let int8 = workload.int8().then(|| {
            let qsel = QuantizedSelection::gather(&QuantizedHead::quantize(head), &selection);
            let bias_idx: Vec<usize> = (0..qsel.dim())
                .filter(|&i| qsel.byte_index(i).is_none())
                .collect();
            let bias0 = bias_idx.iter().map(|&i| qsel.theta0()[i]).collect();
            Int8Storage {
                qsel,
                bias_idx,
                bias0,
            }
        });
        let sharded = (workload == Workload::ShardedPipe).then(|| {
            let base = ExecutorConfig::new(shards);
            let (planner_seed, planner) = fixed_planner(n, shards, base.deadline);
            let count = |want: fn(&FaultDirective) -> bool| {
                split_ranges(n, shards)
                    .iter()
                    .enumerate()
                    .filter(|(s, r)| {
                        planner
                            .directive(*s, 0, base.deadline, r.len())
                            .as_ref()
                            .is_some_and(want)
                    })
                    .count()
            };
            let expected_crash = count(|d| matches!(d, FaultDirective::KillAfter(_)));
            let expected_corrupt = count(|d| !matches!(d, FaultDirective::KillAfter(_)));
            Sharded {
                campaign: ShardedCampaign::new(
                    head,
                    selection.clone(),
                    victim.pool.clone(),
                    victim.pool_labels.clone(),
                ),
                // A short fixed backoff: retries stay on the measured
                // path without a sleep dominating the pass.
                config: base.with_planner(Some(planner)).with_backoff(5, 0),
                planner_seed,
                expected_crash,
                expected_corrupt,
            }
        });
        Runner {
            workload,
            specs,
            campaign,
            arena,
            victim,
            theta0: selection.gather(deployed),
            selection,
            deployed,
            int8,
            sharded,
        }
    }

    /// Scenarios in one pass.
    pub fn scenarios(&self) -> usize {
        self.specs[0].len()
    }

    /// Seed of the fixed fault planner (`sharded_pipe` only).
    pub fn planner_seed(&self) -> Option<u64> {
        self.sharded.as_ref().map(|s| s.planner_seed)
    }

    /// One pass of the workload on campaign `c` of the cycle. Its steps
    /// sit in the `bench.campaign`, `bench.compile` and `bench.score`
    /// spans under `bench.pass`.
    pub fn pass(&self, c: usize) -> PassOut {
        let _p = telemetry::span("bench.pass");
        let spec = &self.specs[c];
        if let Some(sh) = &self.sharded {
            let run = {
                let _s = telemetry::span("bench.campaign");
                sh.campaign.run(spec, "fsa", &sh.config)
            };
            return PassOut {
                report: run.report,
                arena: None,
                bit_flips: 0,
                log: Some(run.log),
            };
        }
        let report = {
            let _s = telemetry::span("bench.campaign");
            self.campaign.run(spec)
        };
        let Some(int8) = &self.int8 else {
            return PassOut {
                report,
                arena: None,
                bit_flips: 0,
                log: None,
            };
        };
        let bit_flips = {
            let _s = telemetry::span("bench.compile");
            compile_plans(int8, &report)
        };
        let arena = {
            let _s = telemetry::span("bench.score");
            self.arena.score_report(&report)
        };
        PassOut {
            report,
            arena: Some(arena),
            bit_flips,
            log: None,
        }
    }

    /// The in-process campaign `c` of the cycle, without compilation or
    /// scoring: the result a sharded pass must merge to.
    pub fn in_process(&self, c: usize) -> PassOut {
        PassOut {
            report: self.campaign.run(&self.specs[c]),
            arena: None,
            bit_flips: 0,
            log: None,
        }
    }

    /// The correctness gate: the number of scenarios of `out`, a pass on
    /// campaign `c`, that are missing or fail a check against the
    /// reference fingerprint. On top of [`gate`], the arena's clean row
    /// must never alarm and a sharded pass must have handled exactly the
    /// planned faults without degrading.
    pub fn failed_scenarios(&self, c: usize, out: &PassOut, reference: u64) -> usize {
        let n = self.scenarios();
        let arena_ok = out
            .arena
            .as_ref()
            .is_none_or(|a| a.len() == n && a.clean.iter().all(|v| !v.detected));
        let log_ok = out.log.as_ref().is_none_or(|log| self.log_as_planned(log));
        if !(arena_ok && log_ok) {
            return n;
        }
        gate(
            out,
            reference,
            &self.specs[c].scenarios(),
            self.selection.dim(self.deployed),
        )
    }

    fn log_as_planned(&self, log: &ExecutionLog) -> bool {
        let sh = self.sharded.as_ref().expect("only sharded passes log");
        log.degraded() == 0
            && log.count(FaultKind::Hang) == 0
            && log.count(FaultKind::Spawn) == 0
            && log.count(FaultKind::Crash) == sh.expected_crash
            && log.count(FaultKind::CorruptFrame) == sh.expected_corrupt
    }

    /// Summarizes the reference result `out` of campaign `c`. A result
    /// that was not scored against the suite is scored here when it is
    /// the first campaign's, so every workload reports `detect_rate`.
    pub fn summarize(&self, c: usize, out: &PassOut) -> Summary {
        let results: Vec<&AttackResult> = out.report.outcomes.iter().map(|o| &o.result).collect();
        let mean = |f: &dyn Fn(&AttackResult) -> f64| {
            results.iter().map(|r| f(r)).sum::<f64>() / results.len().max(1) as f64
        };
        let test = &self.victim.test;
        let labels = &self.victim.test_labels;
        let clean_acc = f64::from(self.deployed.accuracy(test, labels));
        let scored = match (&out.arena, c) {
            (Some(a), _) => Some(a.clone()),
            (None, 0) => Some(self.arena.score_report(&out.report)),
            (None, _) => None,
        };
        Summary {
            fingerprint: out.fingerprint(),
            quality: Quality {
                success_rate: mean(&|r| f64::from(r.success_rate())),
                keep_rate: mean(&|r| f64::from(r.unchanged_rate())),
                mean_l0: mean(&|r| r.l0 as f64),
                mean_l2: mean(&|r| f64::from(r.l2)),
                test_acc_retained: mean(&|r| {
                    let attacked =
                        attacked_head(self.deployed, &self.selection, &self.theta0, &r.delta);
                    f64::from(attacked.accuracy(test, labels)) / clean_acc
                }),
            },
            detect_rates: scored.map(|a| {
                (0..a.detectors.len())
                    .map(|d| a.detection_rate(d))
                    .collect()
            }),
            iterations: results.iter().map(|r| r.admm_history.len()).sum(),
            converged: results.iter().filter(|r| r.converged).count(),
            bit_flips: out.bit_flips,
        }
    }

    /// The job frame the supervisor ships to shard 0 for the first
    /// campaign, built the way the sharded executor builds it.
    pub fn shard_job(&self) -> ShardJob {
        let indices = split_ranges(self.scenarios(), self.shards())
            .first()
            .map(|r| r.clone().collect())
            .unwrap_or_default();
        ShardJob {
            head: self.victim.model.head.clone(),
            selection: self.selection.clone(),
            labels: self.victim.pool_labels.clone(),
            features: self.victim.pool.features().clone(),
            spec: self.specs[0].clone(),
            method: "fsa".to_string(),
            indices,
        }
    }

    /// Worker processes of the sharded executor (1 when in-process).
    pub fn shards(&self) -> usize {
        self.sharded.as_ref().map_or(1, |s| s.config.shards)
    }
}

/// The pass-level gate: every scenario of the matrix is present, in
/// order, with a finite δ of the selection's width, an `ℓ0` that counts
/// its non-zeros, and success/keep counters within their totals; and
/// the pass reproduces the reference fingerprint bit for bit. Returns
/// the number of failed or missing scenarios — all of them when the pass
/// as a whole differs from the reference.
pub fn gate(out: &PassOut, reference: u64, scenarios: &[Scenario], dim: usize) -> usize {
    let n = scenarios.len();
    if out.fingerprint() != reference {
        return n;
    }
    let bad = out
        .report
        .outcomes
        .iter()
        .zip(scenarios)
        .filter(|(o, sc)| {
            let r = &o.result;
            !(o.scenario == **sc
                && r.delta.len() == dim
                && r.delta.iter().all(|d| d.is_finite())
                && r.l2.is_finite()
                && r.l0 == r.delta.iter().filter(|d| **d != 0.0).count()
                && r.s_total == sc.s
                && r.keep_total == sc.k
                && r.s_success <= r.s_total
                && r.keep_unchanged <= r.keep_total)
        })
        .count();
    let missing = n.saturating_sub(out.report.outcomes.len());
    (bad + missing).min(n)
}

/// Compiles every scenario's realized δ into byte-level plans: weight
/// bytes through [`QuantFaultPlan`], bias words through [`FaultPlan`].
/// Returns the total bit flips.
fn compile_plans(int8: &Int8Storage, report: &CampaignReport) -> u64 {
    report
        .outcomes
        .iter()
        .map(|o| {
            let (q_new, realized) = int8.qsel.project(&o.result.delta);
            let bytes = QuantFaultPlan::compile(int8.qsel.q0(), &q_new);
            let bias_delta: Vec<f32> = int8.bias_idx.iter().map(|&i| realized[i]).collect();
            let words = FaultPlan::compile(&int8.bias0, &bias_delta);
            bytes.total_bit_flips + words.total_bit_flips
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn cycles_are_fixed_equal_sized_and_disjoint() {
        for w in Workload::ALL {
            let cycle = w.cycle(9);
            assert_eq!(cycle, w.cycle(9), "{}", w.name());
            assert!(cycle.iter().all(|c| c.len() == cycle[0].len()));
            let mut seeds: Vec<u64> = cycle.iter().flat_map(|c| c.seeds.clone()).collect();
            let draws = seeds.len();
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), draws, "{} repeats a draw", w.name());
            assert_ne!(cycle[0].seeds, w.cycle(10)[0].seeds);
        }
    }

    /// A small campaign's pass, with the dimension of its selection.
    fn small_pass() -> (PassOut, Vec<Scenario>, usize) {
        use fault_sneaking::tensor::{Prng, Tensor};
        let mut rng = Prng::new(5);
        let head = FcHead::from_dims(&[6, 12, 3], &mut rng);
        let pool = Tensor::randn(&[24, 6], 1.0, &mut rng);
        let labels = head.predict(&pool);
        let selection = ParamSelection::last_layer(&head);
        let dim = selection.dim(&head);
        let campaign = Campaign::new(&head, selection, FeatureCache::from_features(pool), labels);
        let spec = CampaignSpec::grid(vec![1], vec![2, 4]).with_config(AttackConfig {
            iterations: 40,
            ..AttackConfig::default()
        });
        let out = PassOut {
            report: campaign.run(&spec),
            arena: None,
            bit_flips: 0,
            log: None,
        };
        (out, spec.scenarios(), dim)
    }

    #[test]
    fn gate_passes_a_reproduced_pass() {
        let (out, scenarios, dim) = small_pass();
        assert_eq!(gate(&out, out.fingerprint(), &scenarios, dim), 0);
    }

    #[test]
    fn gate_trips_on_a_mismatched_report() {
        let (reference, scenarios, dim) = small_pass();
        let mut out = reference.clone();
        let d = &mut out.report.outcomes[1].result.delta[0];
        *d = f32::from_bits(d.to_bits() ^ 1);
        assert_ne!(out.fingerprint(), reference.fingerprint());
        assert_eq!(
            gate(&out, reference.fingerprint(), &scenarios, dim),
            scenarios.len()
        );
        // A changed flip count alone also differs from the reference.
        let mut flips = reference.clone();
        flips.bit_flips += 1;
        assert_eq!(
            gate(&flips, reference.fingerprint(), &scenarios, dim),
            scenarios.len()
        );
    }

    #[test]
    fn gate_counts_missing_and_inconsistent_scenarios() {
        let (reference, scenarios, dim) = small_pass();
        // A report that lost its last scenario, compared to itself.
        let mut short = reference.clone();
        short.report.outcomes.pop();
        assert_eq!(gate(&short, short.fingerprint(), &scenarios, dim), 1);
        // A success counter above its total, compared to itself.
        let mut bad = reference.clone();
        bad.report.outcomes[0].result.s_success = bad.report.outcomes[0].result.s_total + 1;
        assert_eq!(gate(&bad, bad.fingerprint(), &scenarios, dim), 1);
        // A non-finite δ.
        let mut nan = reference.clone();
        nan.report.outcomes[0].result.delta[0] = f32::NAN;
        assert_eq!(gate(&nan, nan.fingerprint(), &scenarios, dim), 1);
    }

    #[test]
    fn fixed_planner_crashes_one_shard_and_corrupts_the_other() {
        let deadline = Duration::from_secs(30);
        let (seed, planner) = fixed_planner(8, 2, deadline);
        assert!(matches!(
            planner.directive(0, 0, deadline, 4),
            Some(FaultDirective::KillAfter(_))
        ));
        assert!(matches!(
            planner.directive(1, 0, deadline, 4),
            Some(
                FaultDirective::TruncateFrame(_)
                    | FaultDirective::FlipBit { .. }
                    | FaultDirective::DuplicateFrame(_)
            )
        ));
        for shard in 0..2 {
            assert_eq!(planner.directive(shard, 1, deadline, 4), None);
        }
        // Fixed: the search is a pure function of the shape.
        assert_eq!(fixed_planner(8, 2, deadline).0, seed);
    }
}
