//! End-to-end and per-layer benchmark of the polysig validation flow.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed (untimed, outside
//! `setup_s`), sets the workload up several times (the median is
//! `setup_s`), then drives closed-loop ops for the given number of
//! seconds and checks every op's output against an independent
//! reference. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. BENCH.md
//! explains the workloads and the metrics.

mod design_flow;
mod serve_mix;
mod trace;
mod verify_sweep;

use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use trace::Tracer;

/// How long a measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Plan {
    /// Until the deadline (ops in flight finish).
    Until(Instant),
    /// Exactly `ops` ops, starting at op 0 of the stream.
    Ops { ops: usize },
}

impl Plan {
    fn more(&self, done: usize) -> bool {
        match *self {
            Plan::Until(deadline) => Instant::now() < deadline,
            Plan::Ops { ops } => done < ops,
        }
    }
}

/// What one measured phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of every attempted op, in ns; a failed op counts as
    /// `u64::MAX` (it misses any latency limit).
    pub latencies_ns: Vec<u64>,
    /// When each op ended, in ns since the phase started.
    pub ends_ns: Vec<u64>,
    /// Index of the phase's first op in the op stream.
    pub first: u64,
    pub failed: usize,
    pub first_error: Option<String>,
    pub wall: Duration,
    /// The process's resident-set high-water mark when the phase's ops
    /// ended, before any check that runs after the clock stops (MB).
    pub peak_rss_mb: f64,
    /// Share of the CPU time the machine wanted during the phase's ops
    /// that the hypervisor gave to other guests instead (steal).
    pub stolen: f64,
}

impl Phase {
    /// Appends a phase that ran after this one.
    fn absorb(&mut self, other: Phase) {
        self.latencies_ns.extend(other.latencies_ns);
        self.ends_ns.extend(other.ends_ns);
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.wall += other.wall;
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
    }

    fn attempted(&self) -> usize {
        self.latencies_ns.len()
    }

    fn ops_per_s(&self) -> f64 {
        (self.attempted() - self.failed) as f64 / self.wall.as_secs_f64()
    }
}

/// Runs ops `first, first + 1, …` in a closed loop until `plan` is spent
/// or op `end` is reached (the inputs end there); returns the phase and
/// the next op index.
pub fn closed_loop(
    first: u64,
    end: u64,
    plan: Plan,
    tracer: &mut Tracer,
    mut op: impl FnMut(u64, &mut Tracer) -> Result<(), String>,
) -> (Phase, u64) {
    let ticks = CpuTicks::now();
    let start = Instant::now();
    let mut next = match plan {
        Plan::Ops { .. } => 0,
        Plan::Until(_) => first,
    };
    let mut phase = Phase { first: next, ..Phase::default() };
    while next < end && plan.more(phase.latencies_ns.len()) {
        tracer.begin_op(next);
        let t = Instant::now();
        let result = op(next, tracer);
        let ns = t.elapsed().as_nanos() as u64;
        match result {
            Ok(()) => phase.latencies_ns.push(ns),
            Err(e) => {
                phase.latencies_ns.push(u64::MAX);
                phase.failed += 1;
                phase.first_error.get_or_insert(format!("op {next}: {e}"));
            }
        }
        phase.ends_ns.push(start.elapsed().as_nanos() as u64);
        next += 1;
    }
    phase.wall = start.elapsed();
    phase.peak_rss_mb = peak_rss_mb();
    phase.stolen = CpuTicks::now().stolen_since(ticks);
    (phase, next)
}

/// splitmix64: decorrelates seeds derived from a counter.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..i + 1));
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Generated inputs (seeded; untimed).
    type Inputs;
    /// Set-up state the ops run against.
    type State;
    /// Ops in each exact-count pass of a traced run.
    const COUNT_OPS: usize;
    /// Counters that depend on thread timing: taken from the traced
    /// phases, and printed for both count passes to show their spread.
    const TIMING_DEPENDENT: &'static [&'static str] = &[];
    /// A fixed-count phase, run before the timed one, whose high-water
    /// mark is `peak_rss_mb`: for a workload whose resident set grows with
    /// the ops it completes. `None` takes it from the timed phase.
    const RSS_PLAN: Option<Plan> = None;
    /// Ops in one pass over the inputs, for a workload whose ops differ
    /// widely in cost: throughput then comes from the timed phase's whole
    /// passes only, and the latency percentiles from each input's median
    /// latency over those passes, so that every run weighs every input
    /// alike and ranks the same inputs, whatever the seed and however
    /// many passes it completes. `0` uses every op.
    const PASS: usize = 0;
    /// Run the workload's threads on one CPU (spawned threads inherit
    /// it; `unpin` lets one go): for a client and a server that hand
    /// every request across threads, where a wake-up on the other CPU of
    /// a virtual machine costs more, and varies more, than the request.
    const ONE_CPU: bool = false;

    /// Inputs for runs of `seconds` seconds.
    fn generate(seed: u64, seconds: f64) -> Self::Inputs;
    /// Which of the `PASS` inputs op `op` runs on.
    fn input_of(_inputs: &Self::Inputs, op: u64) -> usize {
        op as usize % Self::PASS.max(1)
    }
    /// Program-side set-up plus the untimed warm-up.
    fn setup(inputs: &Self::Inputs) -> Result<Self::State, String>;
    /// Runs one measured phase, continuing the op stream where the
    /// previous phase on `state` stopped (`Plan::Ops` restarts at op 0).
    fn measure(
        state: &mut Self::State,
        inputs: &Self::Inputs,
        plan: Plan,
        tracer: &mut Tracer,
    ) -> Phase;
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    ALL_CPUS.get_or_init(cpu_mask);
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "design_flow" => run::<design_flow::DesignFlow>(&args),
        "verify_sweep" => run::<verify_sweep::VerifySweep>(&args),
        "serve_mix" => run::<serve_mix::ServeMix>(&args),
        other => Err(format!(
            "unknown workload `{other}` (expected design_flow, verify_sweep or serve_mix)"
        )),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

fn run<W: Workload>(args: &Args) -> Result<String, String> {
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let t = Instant::now();
    let inputs = W::generate(args.seed, args.seconds);
    println!("inputs generated in {:.3} s (not part of setup_s)", t.elapsed().as_secs_f64());
    if W::ONE_CPU {
        match ALL_CPUS.get().copied().flatten() {
            Some(all) if set_cpu_mask(all & all.wrapping_neg()) => {
                println!("pinned to CPU {}", all.trailing_zeros());
            }
            _ => println!("could not pin to one CPU; running unpinned"),
        }
    }
    if args.trace {
        traced::<W>(args, &inputs)
    } else {
        untraced::<W>(args, &inputs)
    }
}

fn untraced<W: Workload>(args: &Args, inputs: &W::Inputs) -> Result<String, String> {
    let epoch = Instant::now();
    // ops outside the timed phase: checked, but not in the metrics. The
    // fixed-count phase runs first, on a set-up of its own, so that the
    // high-water mark reflects it and not how earlier set-ups happened to
    // leave the allocator's arenas
    let mut untimed = Phase::default();
    if let Some(plan) = W::RSS_PLAN {
        untimed = W::measure(&mut W::setup(inputs)?, inputs, plan, &mut Tracer::off(epoch));
        println!(
            "peak_rss_mb from a fixed phase of {} ops: {:.2}",
            untimed.attempted(),
            untimed.peak_rss_mb
        );
    }

    let mut setups = Vec::new();
    let mut state = None;
    let mut stolen = 0.0;
    for _ in 0..SETUP_REPEATS {
        drop(state.take());
        let ticks = CpuTicks::now();
        let t = Instant::now();
        let s = W::setup(inputs)?;
        setups.push(t.elapsed().as_secs_f64());
        stolen += CpuTicks::now().stolen_since(ticks) / SETUP_REPEATS as f64;
        state = Some(s);
    }
    let mut state = state.expect("at least one set-up");
    let setup_s = median(&setups) * (1.0 - stolen);
    println!(
        "set-ups took {:?} s, median {:.6} s; {:.2}% stolen, so setup_s {setup_s:.6}",
        rounded(&setups),
        median(&setups),
        stolen * 100.0
    );

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let phase = W::measure(&mut state, inputs, Plan::Until(deadline), &mut Tracer::off(epoch));
    drop(state);

    let passes = phase.attempted().checked_div(W::PASS).unwrap_or(0);
    let (n, wall, samples) = if passes > 0 {
        let n = passes * W::PASS;
        println!(
            "metrics over {passes} whole passes: the first {n} of {} ops; latencies are each \
             input's median over the passes",
            phase.attempted()
        );
        let mut per_input = vec![Vec::with_capacity(passes); W::PASS];
        for (k, &l) in phase.latencies_ns[..n].iter().enumerate() {
            per_input[W::input_of(inputs, phase.first + k as u64)].push(ms(l));
        }
        if per_input.iter().any(|v| v.len() != passes) {
            return Err("a whole pass did not visit every input once".into());
        }
        let samples: Vec<f64> = per_input.iter().map(|v| median(v)).collect();
        (n, Duration::from_nanos(phase.ends_ns[n - 1]), samples)
    } else {
        let samples = phase.latencies_ns.iter().map(|&l| ms(l)).collect();
        (phase.attempted(), phase.wall, samples)
    };
    let completed = phase.latencies_ns[..n].iter().filter(|&&l| l != u64::MAX).count();
    let mut sorted = samples;
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let (tail_p, tail_rank) = tail_rank(m);
    let (raw_rate, raw_p50, raw_tail) = (
        completed as f64 / wall.as_secs_f64(),
        sorted[percentile_rank(m, 50.0)],
        sorted[tail_rank],
    );
    println!(
        "ops {n} failed {} wall {:.3} s: {raw_rate:.4} ops/s; p50 {raw_p50:.4} ms over {m} \
         samples; tail p{tail_p:.2} {raw_tail:.4} ms ({} samples beyond)",
        phase.failed,
        wall.as_secs_f64(),
        m - 1 - tail_rank
    );
    // the timings count only the CPU time the hypervisor let the machine
    // have: a share `stolen` of every second went to other guests
    let kept = 1.0 - phase.stolen;
    let (ops_per_s, p50, tail) = (raw_rate / kept, raw_p50 * kept, raw_tail * kept);
    println!(
        "{:.2}% stolen, so ops_per_s {ops_per_s:.4}, latency_p50_ms {p50:.4}, \
         latency_tail_ms {tail:.4}",
        phase.stolen * 100.0
    );
    let rss = if W::RSS_PLAN.is_some() { untimed.peak_rss_mb } else { phase.peak_rss_mb };
    if let Some(e) = phase.first_error.as_ref().or(untimed.first_error.as_ref()) {
        println!("first failure: {e}");
    }
    let (attempted, failed) =
        (phase.attempted() + untimed.attempted(), phase.failed + untimed.failed);
    let metrics = [
        ("ops_per_s", ops_per_s, "1/s"),
        ("latency_p50_ms", p50, "ms"),
        ("latency_tail_ms", tail, "ms"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", rss, "MB"),
    ];
    Ok(result_line(failed == 0, attempted, failed, &metrics))
}

fn traced<W: Workload>(args: &Args, inputs: &W::Inputs) -> Result<String, String> {
    let epoch = Instant::now();
    // two exact-count passes on fresh set-ups: the exact counters must repeat
    let mut passes = Vec::new();
    for _ in 0..2 {
        let mut state = W::setup(inputs)?;
        let mut tracer = Tracer::on(epoch);
        let phase = W::measure(&mut state, inputs, Plan::Ops { ops: W::COUNT_OPS }, &mut tracer);
        passes.push((phase, tracer));
    }
    let mut repeat_ok = true;
    for (name, _, src) in PER_LAYER {
        let keys: Vec<&str> = match src {
            Src::Exact(k) => vec![k],
            Src::Ratio(a, b) => vec![a, b],
            _ => continue,
        };
        for k in keys {
            let (a, b) = (passes[0].1.count(k), passes[1].1.count(k));
            if a != b {
                repeat_ok = false;
                println!("exact counter {k} (for {name}) differs between passes: {a} vs {b}");
            }
        }
    }
    for k in W::TIMING_DEPENDENT {
        println!(
            "timing-dependent counter {k}: count passes {} and {}",
            passes[0].1.count(k),
            passes[1].1.count(k)
        );
    }
    println!("exact counters repeat across the two count passes: {repeat_ok}");

    // tracing overhead: the same ops untraced, traced, traced, untraced,
    // each on a fresh set-up; the first phase fixes the op count
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let mut state = W::setup(inputs)?;
    let first = W::measure(
        &mut state,
        inputs,
        Plan::Until(Instant::now() + quarter),
        &mut Tracer::off(epoch),
    );
    drop(state);
    let replay = Plan::Ops { ops: first.attempted() };
    let mut tracer = Tracer::on(epoch);
    let (mut plain, mut phase) = (first, Phase::default());
    for traced in [true, true, false] {
        let mut state = W::setup(inputs)?;
        if traced {
            phase.absorb(W::measure(&mut state, inputs, replay, &mut tracer));
        } else {
            plain.absorb(W::measure(&mut state, inputs, replay, &mut Tracer::off(epoch)));
        }
    }
    let overhead = plain.ops_per_s() / phase.ops_per_s() - 1.0;
    let op_ns: f64 = phase.latencies_ns.iter().filter(|&&l| l != u64::MAX).map(|&l| l as f64).sum();
    let span_ns: f64 = LAYERS.iter().map(|l| tracer.busy(l).as_nanos() as f64).sum();
    let coverage = span_ns / op_ns;
    println!(
        "tracing overhead {:+.2}% (untraced {:.2} ops/s, traced {:.2} ops/s)",
        overhead * 100.0,
        plain.ops_per_s(),
        phase.ops_per_s()
    );
    println!("layer spans cover {:.2}% of op wall time", coverage * 100.0);

    let count = &passes[0].1;
    let ops = (phase.attempted() - phase.failed).max(1) as f64;
    let mut metrics = Vec::new();
    for (name, unit, src) in PER_LAYER {
        let value = match *src {
            Src::Busy(layer) => tracer.busy(layer).as_secs_f64() * 1e3 / ops,
            Src::Exact(k) => count.count(k),
            Src::Ratio(a, b) => ratio(count.count(a), count.count(b)),
            Src::Rate(k, layer) => ratio(tracer.count(k), tracer.busy(layer).as_secs_f64()),
            Src::PerOp(k) => tracer.count(k) / ops,
            Src::Peak(k) => tracer.count(k),
            Src::MeanSpan(layer) => {
                let (sum, n) = tracer
                    .spans_of(layer)
                    .fold((0u64, 0u64), |(s, n), sp| (s + sp.end_ns - sp.start_ns, n + 1));
                ratio(sum as f64 / 1e6, n as f64)
            }
            Src::Overhead => overhead,
            Src::Coverage => coverage,
        };
        metrics.push((*name, value, *unit));
    }

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = dir.join(format!("spans_{}_{}.jsonl", args.workload, args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|_| std::fs::write(&file, tracer.spans_jsonl()))
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    println!("spans written to {}", file.display());

    let mut total = Phase::default();
    for p in passes.into_iter().map(|(p, _)| p).chain([plain, phase]) {
        total.absorb(p);
    }
    if let Some(e) = &total.first_error {
        println!("first failure: {e}");
    }
    let correct = total.failed == 0 && repeat_ok;
    Ok(result_line(correct, total.attempted(), total.failed, &metrics))
}

/// Where a per-layer metric comes from.
#[derive(Debug, Clone, Copy)]
enum Src {
    /// Time inside the layer's spans per completed op, traced phase (ms).
    Busy(&'static str),
    /// An exact counter summed over the first count pass.
    Exact(&'static str),
    /// Ratio of two exact counters of the first count pass.
    Ratio(&'static str, &'static str),
    /// A traced-phase counter per second of the layer's busy time.
    Rate(&'static str, &'static str),
    /// A timing-dependent traced-phase counter per completed op.
    PerOp(&'static str),
    /// A traced-phase high-water mark.
    Peak(&'static str),
    /// Mean duration of the layer's spans, traced phase (ms).
    MeanSpan(&'static str),
    /// Untraced over traced throughput, minus one.
    Overhead,
    /// Share of op wall time inside layer spans.
    Coverage,
}

/// Top-level spans, which never nest, for span coverage: the library
/// layers, and whole client calls for serve.
const LAYERS: &[&str] = &[
    "lang",
    "sim",
    "analyze",
    "estimate",
    "desync",
    "reach",
    "bmc",
    "federated",
    "serve.hit",
    "serve.cold",
];

const PER_LAYER: &[(&str, &str, Src)] = &[
    ("lang.busy_ms", "ms", Src::Busy("lang")),
    ("lang.tokens", "count", Src::Exact("lang.tokens")),
    ("sim.busy_ms", "ms", Src::Busy("sim")),
    ("sim.reactions", "count", Src::Exact("sim.reactions")),
    ("sim.compiled_share", "ratio", Src::Ratio("sim.compiled", "sim.runs")),
    ("analyze.busy_ms", "ms", Src::Busy("analyze")),
    ("analyze.diagnostics", "count", Src::Exact("analyze.diagnostics")),
    ("analyze.proven_share", "ratio", Src::Ratio("analyze.proven", "analyze.channels")),
    ("estimate.busy_ms", "ms", Src::Busy("estimate")),
    ("estimate.rounds", "count", Src::Exact("estimate.rounds")),
    ("estimate.converged_share", "ratio", Src::Ratio("estimate.converged", "estimate.runs")),
    ("desync.busy_ms", "ms", Src::Busy("desync")),
    ("desync.channels", "count", Src::Exact("desync.channels")),
    ("reach.busy_ms", "ms", Src::Busy("reach")),
    ("reach.states", "count", Src::Exact("reach.states")),
    ("reach.transitions", "count", Src::Exact("reach.transitions")),
    ("reach.states_per_s", "1/s", Src::Rate("reach.states", "reach")),
    ("reach.pruned_share", "ratio", Src::Ratio("reach.pruned", "reach.expanded")),
    ("bmc.busy_ms", "ms", Src::Busy("bmc")),
    ("bmc.depth", "count", Src::Exact("bmc.depth")),
    ("bmc.unsupported", "count", Src::Exact("bmc.unsupported")),
    ("federated.busy_ms", "ms", Src::Busy("federated")),
    ("federated.reactions_per_s", "1/s", Src::Rate("federated.reactions", "federated")),
    ("federated.pushes", "count", Src::Exact("federated.pushes")),
    ("federated.stall_events", "count", Src::PerOp("federated.stall_events")),
    ("federated.stalled_ms", "ms", Src::PerOp("federated.stalled_ms")),
    ("federated.max_occupancy", "count", Src::Peak("federated.max_occupancy")),
    ("serve.hit_ms", "ms", Src::MeanSpan("serve.hit")),
    ("serve.cold_ms", "ms", Src::MeanSpan("serve.cold")),
    ("serve.codec_ms", "ms", Src::PerOp("serve.codec_ms")),
    ("serve.response_bytes", "bytes", Src::Ratio("serve.response_bytes", "serve.requests")),
    ("serve.hits", "count", Src::Exact("serve.hits")),
    ("serve.misses", "count", Src::Exact("serve.misses")),
    ("serve.evictions", "count", Src::Exact("serve.evictions")),
    ("serve.hit_ratio", "ratio", Src::Ratio("serve.hits", "serve.lookups")),
    ("trace.overhead_share", "ratio", Src::Overhead),
    ("trace.span_coverage", "ratio", Src::Coverage),
];

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

/// Nearest-rank index of the `p`-th percentile among `n` sorted samples.
fn percentile_rank(n: usize, p: f64) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The tail percentile and its rank: p99 from 1000 samples on, otherwise
/// the highest percentile with at least ten samples beyond it (exactly
/// ten), which meets p99 at 1000 samples without a jump.
fn tail_rank(n: usize) -> (f64, usize) {
    if n >= 1000 {
        (99.0, percentile_rank(n, 99.0))
    } else if n > 10 {
        let rank = n - 11;
        (100.0 * (rank + 1) as f64 / n as f64, rank)
    } else {
        (100.0, n - 1)
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn rounded(v: &[f64]) -> Vec<f64> {
    v.iter().map(|x| (x * 1e4).round() / 1e4).collect()
}

/// The CPUs the process may run on when it starts.
static ALL_CPUS: OnceLock<Option<u64>> = OnceLock::new();

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, as a bit mask over the first
/// 64 CPUs (bit i = CPU i); `None` where the kernel's mask is wider.
fn cpu_mask() -> Option<u64> {
    let mut mask = 0u64;
    // SAFETY: the kernel writes at most `size` bytes into `mask`.
    let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut mask) } == 0;
    ok.then_some(mask)
}

/// Restricts the calling thread, and the threads it spawns from now on,
/// to the CPUs in `mask`.
fn set_cpu_mask(mask: u64) -> bool {
    // SAFETY: the kernel reads `size` bytes from `mask`.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Lets the calling thread run on every CPU the process started with.
pub fn unpin() {
    if let Some(all) = ALL_CPUS.get().copied().flatten() {
        set_cpu_mask(all);
    }
}

/// The machine's CPU time so far, in clock ticks, from the first line of
/// `/proc/stat`: what its CPUs ran (user, nice, system, irq, softirq) and
/// what they were ready to run while the hypervisor ran other guests
/// (steal).
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .filter_map(|x| x.parse().ok())
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        CpuTicks { busy: at(0) + at(1) + at(2) + at(5) + at(6), steal: at(7) }
    }

    /// Share of the CPU time wanted since `earlier` that went to steal.
    fn stolen_since(self, earlier: CpuTicks) -> f64 {
        let (busy, steal) = (self.busy - earlier.busy, self.steal - earlier.steal);
        ratio(steal as f64, (busy + steal) as f64)
    }
}

/// The process's resident-set high-water mark, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
    }
    out.push_str("}}");
    out
}
