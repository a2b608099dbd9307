//! The repository benchmark: closed-loop fault-sneaking campaign
//! workloads, end-to-end metrics from untraced runs and per-layer
//! metrics from a traced run. See `perfbench/README.md`.
//!
//! ```text
//! bash perfbench/run.sh --workload grid_last --seed 1 --seconds 18 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod host;
mod layers;
mod stats;
mod victim;
mod workload;

use fault_sneaking::attack::FsaMethod;
use fault_sneaking::harness::injector::{FAULT_ENV, FAULT_SEED_ENV};
use fault_sneaking::harness::proto::ShardJob;
use fault_sneaking::harness::worker::{CONNECT_ENV, HEARTBEAT_MS_ENV, WORKER_ID_ENV};
use fault_sneaking::harness::FaultKind;
use fault_sneaking::telemetry::{self, Snapshot};
use fault_sneaking::tensor::parallel;
use stats::{median, percentile, quartiles};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use victim::Victim;
use workload::{PassOut, Runner, Summary, Workload};

/// Set-ups before and after the timed loop; `setup_s` is the median of
/// all of them. Set-up time swings with short slow spells of the host,
/// so its samples are spread over the run.
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: fsa-perfbench --workload <grid_last|grid_all_layers|\
stealth_int8_arena|sharded_pipe> --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Environment settings the program (and the C allocator under it)
/// reads, with the value every run pins them to; `None` means unset.
const PINNED_ENV: [(&str, Option<&str>); 7] = [
    // Sharded workers inherit this: one kernel thread each, so shards ×
    // worker threads never exceeds the cores. In-process work sets its
    // thread count with `parallel::set_threads`, which overrides it.
    ("FSA_THREADS", Some("1")),
    // One malloc arena: peak RSS then reflects live data, not which
    // per-thread arena a scoped worker happened to land in.
    ("MALLOC_ARENA_MAX", Some("1")),
    // No injected faults beyond the fixed plan, and pipe transport only.
    (FAULT_ENV, None),
    (FAULT_SEED_ENV, None),
    (CONNECT_ENV, None),
    (WORKER_ID_ENV, None),
    (HEARTBEAT_MS_ENV, None),
];

/// Re-executes this binary under the pinned environment unless it
/// already runs under it. glibc reads `MALLOC_ARENA_MAX` at start-up,
/// so the setting cannot be changed from inside the process.
fn pin_env() {
    let pinned = PINNED_ENV
        .iter()
        .all(|(k, v)| std::env::var(k).ok().as_deref() == *v);
    if pinned {
        return;
    }
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = std::process::Command::new(exe);
    cmd.args(std::env::args_os().skip(1));
    for (k, v) in PINNED_ENV {
        match v {
            Some(v) => cmd.env(k, v),
            None => cmd.env_remove(k),
        };
    }
    let err = std::os::unix::process::CommandExt::exec(&mut cmd);
    panic!("cannot re-execute under the pinned environment: {err}");
}

/// A metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

fn main() {
    // Sharded workers are this binary re-spawned with `--worker`.
    fault_sneaking::harness::worker::maybe_run_worker();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    pin_env();
    telemetry::set_enabled(false);
    let nproc = host::nproc();
    parallel::set_threads(nproc);
    let mut run = Run {
        args: &args,
        nproc,
        attempted: 0,
        failed: 0,
        setup_ok: true,
    };
    run.go();
}

/// The timed set-ups of a run: building the victim and binding the
/// workload to it.
#[derive(Default)]
struct Setups {
    /// Wall seconds of each set-up.
    seconds: Vec<f64>,
    /// Telemetry of each set-up (empty unless traced).
    stages: Vec<Snapshot>,
    /// Fingerprint of each set-up's victim.
    prints: Vec<u64>,
}

impl Setups {
    /// One timed set-up; returns the victim it built.
    fn run(&mut self, workload: Workload, seed: u64, shards: usize, trace: bool) -> Victim {
        telemetry::set_enabled(trace);
        let t = Instant::now();
        let victim = Victim::build(seed, workload.int8());
        drop(Runner::new(workload, &victim, seed, shards));
        self.seconds.push(t.elapsed().as_secs_f64());
        telemetry::set_enabled(false);
        self.stages.push(telemetry::drain());
        self.prints.push(victim.fingerprint());
        victim
    }
}

/// One benchmark run: its settings, the running gate tally, and what
/// it measured.
struct Run<'a> {
    args: &'a Args,
    nproc: usize,
    attempted: usize,
    failed: usize,
    setup_ok: bool,
}

/// Pass times and CPU time of the timed loop.
#[derive(Default)]
struct Loop {
    /// Wall ms of each measured pass (untraced passes in a traced run).
    walls_ms: Vec<f64>,
    /// Wall ms of each traced pass (traced run only).
    traced_ms: Vec<f64>,
    /// Wall ms of each in-process pass of the sharded spec (traced
    /// `sharded_pipe` only).
    in_process_ms: Vec<f64>,
    /// CPU seconds (children included) over the measured passes.
    cpu_s: f64,
    /// Peak RSS (MiB) of each measured pass.
    peak_rss_mb: Vec<f64>,
    /// Wall seconds of the measured passes.
    wall_s: f64,
    /// Harness totals over the traced passes: attempts, crashes,
    /// corrupt frames, degraded shards.
    harness: [usize; 4],
}

impl Run<'_> {
    fn go(&mut self) {
        let Args {
            workload,
            seed,
            trace,
            ..
        } = *self.args;
        let load_start = host::loadavg();

        let mut setups = Setups::default();
        let mut kept = None;
        for _ in 0..SETUPS_BEFORE {
            // Free the previous victim first, so repeats do not stack.
            drop(kept.take());
            kept = Some(setups.run(workload, seed, self.nproc, trace));
        }
        let victim = kept.expect("at least one set-up");
        let test_acc = victim.test_acc();
        let runner = Runner::new(workload, &victim, seed, self.nproc);
        let n = runner.scenarios();
        self.print_identity(&runner, test_acc);

        // References, computed at one thread: the first campaign of the
        // cycle (every pass on it runs at `nproc` threads and must
        // reproduce it bit for bit) and, on `sharded_pipe`, every
        // campaign in-process, which the merged sharded reports must
        // equal. Any other campaign's first pass is the reference of its
        // later passes. A traced run keeps the first campaign's result,
        // to check each of its scenarios run alone; an untraced run drops
        // it, so its δs stay out of the measured resident set.
        parallel::set_threads(1);
        let sharded = workload == Workload::ShardedPipe;
        let mut refs: Vec<Option<Summary>> = vec![None; runner.specs.len()];
        let first = if sharded {
            runner.in_process(0)
        } else {
            runner.pass(0)
        };
        self.tally(&runner, 0, &first, &mut refs);
        if sharded {
            for c in 1..runner.specs.len() {
                self.tally(&runner, c, &runner.in_process(c), &mut refs);
            }
        }
        let first = trace.then_some(first);
        parallel::set_threads(self.nproc);

        let lp = self.timed_loop(&runner, &mut refs);
        let refs: Vec<Summary> = refs.into_iter().flatten().collect();
        // The traced passes' spans, drained before the late set-ups
        // record theirs.
        let passes = telemetry::drain();
        for _ in 0..SETUPS_AFTER {
            setups.run(workload, seed, self.nproc, trace);
        }
        let load_end = host::loadavg();
        let (q1, q2, q3) = quartiles(&lp.walls_ms);
        println!(
            "{{\"noise\": {{\"load_start\": {load_start}, \"load_end\": {load_end}, \
             \"cpu_wall_ratio\": {}, \"passes\": {}, \"pass_ms_q1\": {q1}, \
             \"pass_ms_median\": {q2}, \"pass_ms_q3\": {q3}, \"setup_s\": {:?}}}}}",
            lp.cpu_s / lp.wall_s,
            lp.walls_ms.len(),
            setups.seconds,
        );
        // Every set-up must build the identical victim.
        self.setup_ok = setups.prints.iter().all(|&p| p == setups.prints[0])
            && test_acc >= victim::MIN_TEST_ACC;

        let metrics = if trace {
            let first = first.expect("a traced run keeps the first campaign's result");
            self.per_layer(&runner, &first, &refs, &setups.stages, &passes, &lp)
        } else {
            // Untraced runs end on a whole cycle, so every campaign has
            // its reference.
            let q = workload::quality(&refs);
            let passes = lp.walls_ms.len() as f64;
            vec![
                ("setup_s", median(&setups.seconds), "s"),
                ("scenarios_per_s", n as f64 / (q2 / 1e3), "1/s"),
                (
                    "cpu_ms_per_scenario",
                    lp.cpu_s * 1e3 / (passes * n as f64),
                    "ms",
                ),
                ("peak_rss_mb", median(&lp.peak_rss_mb), "MiB"),
                ("success_rate", q.success_rate, "ratio"),
                ("keep_rate", q.keep_rate, "ratio"),
                ("mean_l0", q.mean_l0, "count"),
                ("mean_l2", q.mean_l2, "norm"),
                ("test_acc_retained", q.test_acc_retained, "ratio"),
                ("detect_rate", workload::detect_rate(&refs), "ratio"),
            ]
        };
        println!("{}", self.result_json(&metrics));
    }

    /// Runs the gate on a pass on campaign `c` and adds it to the
    /// tally. The first result of a campaign without a reference
    /// becomes its reference.
    fn tally(
        &mut self,
        runner: &Runner<'_>,
        c: usize,
        out: &PassOut,
        refs: &mut [Option<Summary>],
    ) {
        self.attempted += runner.scenarios();
        let reference = refs[c].get_or_insert_with(|| runner.summarize(c, out));
        self.failed += runner.failed_scenarios(c, out, reference.fingerprint);
    }

    /// Back-to-back passes for about `--seconds`, rotating through the
    /// cycle of campaigns. A traced run alternates untraced and traced
    /// passes (and, on `sharded_pipe`, in-process passes) of each
    /// campaign, so drift hits each kind alike. The loop stops at the
    /// round boundary nearest the deadline; an untraced round is a whole
    /// cycle, so every campaign weighs alike in the pass-time median
    /// and has a reference for the quality figures.
    fn timed_loop(&mut self, runner: &Runner<'_>, refs: &mut [Option<Summary>]) -> Loop {
        let kinds = match (self.args.trace, runner.workload) {
            (false, _) => 1,
            (true, Workload::ShardedPipe) => 3,
            (true, _) => 2,
        };
        let cycle = runner.specs.len();
        let round = if self.args.trace { kinds } else { cycle };
        let seconds = self.args.seconds as f64;
        let mut lp = Loop::default();
        let start = Instant::now();
        let mut round_start = start;
        for i in 0.. {
            let c = (i / kinds) % cycle;
            match i % kinds {
                0 => {
                    host::reset_peak_rss();
                    let c0 = host::cpu_now();
                    let t = Instant::now();
                    let out = runner.pass(c);
                    let wall = t.elapsed().as_secs_f64();
                    lp.cpu_s += host::cpu_now().total_s() - c0.total_s();
                    lp.wall_s += wall;
                    lp.walls_ms.push(wall * 1e3);
                    lp.peak_rss_mb.push(host::peak_rss_mb());
                    self.tally(runner, c, &out, refs);
                }
                1 => {
                    telemetry::set_enabled(true);
                    let t = Instant::now();
                    let out = runner.pass(c);
                    lp.traced_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    telemetry::set_enabled(false);
                    if let Some(log) = &out.log {
                        lp.harness[0] += log.total_attempts();
                        lp.harness[1] += log.count(FaultKind::Crash);
                        lp.harness[2] += log.count(FaultKind::CorruptFrame);
                        lp.harness[3] += log.degraded();
                    }
                    self.tally(runner, c, &out, refs);
                }
                _ => {
                    let t = Instant::now();
                    let out = runner.in_process(c);
                    lp.in_process_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    self.tally(runner, c, &out, refs);
                }
            }
            if (i + 1) % round == 0 {
                let now = Instant::now();
                let last = (now - round_start).as_secs_f64();
                round_start = now;
                if (now - start).as_secs_f64() + last / 2.0 >= seconds {
                    break;
                }
            }
        }
        lp
    }

    /// The traced run's per-layer metrics. `stages` holds one snapshot
    /// per set-up, `passes` the snapshot of the timed loop, and `lp` its
    /// pass times.
    fn per_layer(
        &mut self,
        runner: &Runner<'_>,
        first: &PassOut,
        refs: &[Summary],
        stages: &[Snapshot],
        passes: &Snapshot,
        lp: &Loop,
    ) -> Vec<Metric> {
        let w = runner.workload;
        let n = runner.scenarios();
        let nf = n as f64;
        let seed = self.args.seed;
        let stage_s = |name: &str| {
            median(
                &stages
                    .iter()
                    .map(|s| layers::total_ns(s, name) as f64 / 1e9)
                    .collect::<Vec<_>>(),
            )
        };
        let pass_total = |name: &str| layers::total_ns(passes, name) as f64 / 1e6;
        let traced = lp.traced_ms.len().max(1) as f64;

        // One scenario of the first campaign per `run_indices` call at
        // one thread: the cost of each scenario, and the solver spans
        // inside it.
        parallel::set_threads(1);
        telemetry::set_enabled(true);
        let mut scenario_ms = Vec::with_capacity(n);
        for (i, want) in first.report.outcomes.iter().enumerate() {
            let t = Instant::now();
            let got = runner
                .campaign
                .run_indices(&runner.specs[0], &FsaMethod, &[i]);
            scenario_ms.push(t.elapsed().as_secs_f64() * 1e3);
            self.attempted += 1;
            if got.first() != Some(want) {
                self.failed += 1;
            }
        }
        telemetry::set_enabled(false);
        parallel::set_threads(self.nproc);
        let solo = telemetry::drain();

        // Exact counts over every campaign that has a reference.
        let per_scenario = |f: fn(&Summary) -> u64| {
            refs.iter().map(f).sum::<u64>() as f64 / (refs.len() * n) as f64
        };
        let iterations = per_scenario(|r| r.iterations as u64);
        let converged = per_scenario(|r| r.converged as u64);
        let bit_flips = per_scenario(|r| r.bit_flips);
        let arena = w == Workload::StealthInt8Arena;
        let sharded = w == Workload::ShardedPipe;
        let only = |on: bool, v: f64| if on { v } else { 0.0 };

        let (job_bytes, encode_ms, decode_ms) = if sharded {
            self.wire(runner.shard_job())
        } else {
            (0.0, 0.0, 0.0)
        };
        let score_ms = pass_total("bench.score") / traced;
        let detectors = runner.arena.suite().len() as f64;
        let overhead_pct = (median(&lp.traced_ms) / median(&lp.walls_ms) - 1.0) * 100.0;
        let harness_overhead = if sharded {
            median(&lp.walls_ms) - median(&lp.in_process_ms)
        } else {
            0.0
        };
        let per_pass = |i: usize| lp.harness[i] as f64 / traced;
        vec![
            ("data.synth_s", stage_s("bench.synth"), "s"),
            ("nn.extract_s", stage_s("bench.extract"), "s"),
            (
                "nn.extract_images_per_s",
                Victim::extracted_images() as f64 / stage_s("bench.extract"),
                "1/s",
            ),
            ("nn.train_head_s", stage_s("bench.train_head"), "s"),
            ("tensor.gemm_gflops", layers::gemm_gflops(seed), "GFLOP/s"),
            ("tensor.gemm_i8_gops", layers::gemm_i8_gops(seed), "GOP/s"),
            (
                "parallel.imbalance",
                stats::imbalance(
                    &scenario_ms,
                    if sharded { runner.shards() } else { self.nproc },
                ),
                "ratio",
            ),
            ("admm.iterations_per_scenario", iterations, "count"),
            ("admm.converged_frac", converged, "ratio"),
            (
                "admm.ms_per_scenario",
                layers::self_ns(&solo, "admm") as f64 / 1e6 / nf,
                "ms",
            ),
            (
                "attack.scenario_ms_p50",
                percentile(&scenario_ms, 0.5),
                "ms",
            ),
            (
                "attack.scenario_ms_p90",
                percentile(&scenario_ms, 0.9),
                "ms",
            ),
            (
                "attack.scenario_ms_max",
                percentile(&scenario_ms, 1.0),
                "ms",
            ),
            (
                "attack.refine_ms_per_scenario",
                layers::total_ns(&solo, "refine") as f64 / 1e6 / nf,
                "ms",
            ),
            (
                "attack.refine_iterations",
                layers::counter(&solo, "refine.iterations") as f64 / nf,
                "count",
            ),
            (
                "attack.campaign_share",
                pass_total("bench.campaign") / pass_total("bench.pass"),
                "ratio",
            ),
            (
                "memfault.compile_ms",
                only(arena, pass_total("bench.compile") / traced),
                "ms",
            ),
            (
                "memfault.bit_flips_per_scenario",
                only(arena, bit_flips),
                "count",
            ),
            ("defense.calibrate_s", stage_s("bench.calibrate"), "s"),
            (
                "defense.score_ms_per_scenario",
                only(arena, score_ms / nf),
                "ms",
            ),
            (
                "defense.cells_per_s",
                only(arena, nf * detectors / (score_ms / 1e3)),
                "1/s",
            ),
            ("harness.attempts_per_pass", per_pass(0), "count"),
            ("harness.faults_crash", per_pass(1), "count"),
            ("harness.faults_corrupt", per_pass(2), "count"),
            ("harness.degraded", per_pass(3), "count"),
            ("harness.overhead_ms_per_pass", harness_overhead, "ms"),
            ("wire.job_bytes", job_bytes, "bytes"),
            ("wire.encode_ms", encode_ms, "ms"),
            ("wire.decode_ms", decode_ms, "ms"),
            ("telemetry.overhead_pct", overhead_pct, "%"),
        ]
    }

    /// Size and median encode/decode time of shard 0's job frame; the
    /// decoded job must re-encode to the same bytes.
    fn wire(&mut self, job: ShardJob) -> (f64, f64, f64) {
        let bytes = job.encode();
        let budget = Duration::from_millis(300);
        let encode_s = layers::time_median(10, budget, || {
            std::hint::black_box(job.encode());
        });
        let decode_s = layers::time_median(10, budget, || {
            std::hint::black_box(ShardJob::decode(&bytes).expect("job frame decodes"));
        });
        self.attempted += 1;
        if ShardJob::decode(&bytes).map(|j| j.encode()).ok() != Some(bytes.clone()) {
            self.failed += 1;
        }
        (bytes.len() as f64, encode_s * 1e3, decode_s * 1e3)
    }

    fn print_identity(&self, runner: &Runner<'_>, test_acc: f32) {
        let root = std::env::current_dir().unwrap_or_default();
        let flags: Vec<String> = host::cpu_flags()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect();
        println!(
            "{{\"identity\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_rev\": \"{}\", \"source_hash\": \"{}\", \"nproc\": {}, \"cpu_flags\": [{}], \
             \"threads\": {}, \"worker_threads\": 1, \"shards\": {}, \"planner_seed\": {}, \
             \"scenarios_per_pass\": {}, \"victim_test_acc\": {test_acc}}}}}",
            runner.workload.name(),
            self.args.seed,
            self.args.seconds,
            self.args.trace,
            host::git_rev(&root),
            host::source_hash(&root),
            self.nproc,
            flags.join(", "),
            parallel::max_threads(),
            runner.shards(),
            runner.planner_seed().map_or("null".to_string(), |s| s.to_string()),
            runner.scenarios(),
        );
    }

    fn result_json(&self, metrics: &[Metric]) -> String {
        let mut body = String::new();
        for (i, (name, value, unit)) in metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                body,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        let failed = if self.setup_ok {
            self.failed
        } else {
            self.attempted
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
            failed == 0,
            self.attempted.max(1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "sharded_pipe",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workload, Workload::ShardedPipe);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload", "grid_last", "--seconds", "1"]).is_err());
        assert!(args(&[
            "--workload",
            "grid_last",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(args(&["--seed"]).is_err());
    }
}
