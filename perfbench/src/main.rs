//! `perfbench` — the BonXai benchmark: end-to-end metrics of what a user
//! of the library and the `bonxai` CLI waits for, and (with `--trace 1`)
//! a per-layer breakdown from spans recorded around every call into the
//! library's public functions.
//!
//! ```text
//! perfbench --workload <docs-bulk|docs-deep|schemas-large> --seed N
//!           --seconds S --trace 0|1 --cli <path to bonxai> --work-dir <dir>
//! ```
//!
//! Normally started through `perfbench/run.py`, which builds both
//! binaries. The last line of standard output is the JSON result; the
//! line before it is the record header, whose `work_digest` (a digest of
//! the checking pass's work counts) repeats exactly for one seed and
//! changes with the seed.

mod docs;
mod host;
mod inputs;
mod schemas;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use inputs::Inputs;
use trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    DocsBulk,
    DocsDeep,
    SchemasLarge,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "docs-bulk" => Some(Workload::DocsBulk),
            "docs-deep" => Some(Workload::DocsDeep),
            "schemas-large" => Some(Workload::SchemasLarge),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DocsBulk => "docs-bulk",
            Workload::DocsDeep => "docs-deep",
            Workload::SchemasLarge => "schemas-large",
        }
    }

    /// Share of the measured time each phase gets, in phase order. The
    /// document phases dominate the document workloads and the schema
    /// phases dominate schemas-large; every workload runs all of them.
    fn weights(self) -> [(Phase, f64); 10] {
        use Phase::*;
        match self {
            Workload::DocsBulk | Workload::DocsDeep => [
                (Compile, 0.04),
                (Lint, 0.04),
                (Sat, 0.04),
                (Diff, 0.04),
                (Translate, 0.04),
                (Recompile, 0.04),
                (Stream, 0.16),
                (Edit, 0.18),
                (Tree, 0.22),
                (Cli, 0.20),
            ],
            Workload::SchemasLarge => [
                (Compile, 0.14),
                (Lint, 0.16),
                (Sat, 0.10),
                (Diff, 0.10),
                (Translate, 0.12),
                (Recompile, 0.10),
                (Stream, 0.05),
                (Edit, 0.08),
                (Tree, 0.07),
                (Cli, 0.08),
            ],
        }
    }
}

/// The measured phases, in the order they run. The tree phase, the
/// memory-heaviest, is followed by the CLI phase, whose work happens in
/// other processes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Phase {
    Compile,
    Lint,
    Sat,
    Diff,
    Translate,
    Recompile,
    Stream,
    Edit,
    Tree,
    Cli,
}

/// Progress on standard error, with seconds since the process started.
pub fn progress(msg: std::fmt::Arguments) {
    use std::sync::OnceLock;
    static START: OnceLock<Instant> = OnceLock::new();
    let t = START.get_or_init(Instant::now).elapsed().as_secs_f64();
    eprintln!("perfbench [{t:8.3}s] {msg}");
}

/// FNV-1a, for input digests and work-count digests.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Checked operations and their failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }
}

/// Work counts from the checking pass: they depend only on the inputs,
/// so they must repeat exactly for one seed.
pub type Counts = BTreeMap<&'static str, f64>;

pub fn add(counts: &mut Counts, key: &'static str, v: f64) {
    *counts.entry(key).or_default() += v;
}

/// 1 for true, 0 for false.
pub fn indicator(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Adds `1/n` to the share of `class` and 0 to the other `classes`, so
/// that every class is counted even when no input falls in it.
pub fn add_share(counts: &mut Counts, classes: &[&'static str], class: &str, n: f64) {
    for &c in classes {
        add(counts, c, indicator(c == class) / n);
    }
}

/// Everything a phase needs: the inputs, their files, the CLI.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub run_dir: PathBuf,
    pub cli: PathBuf,
    pub seed: u64,
}

/// BENCHMARK.json: the one list of the metrics and their units.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The `(name, unit)` pairs of one metric section of BENCHMARK.json
/// (`end_to_end` or `per_layer`), in file order. Metric objects there
/// are flat: strings and numbers only.
fn listed_metrics(section: &str) -> Vec<(&'static str, &'static str)> {
    let json = BENCHMARK_JSON;
    let Some(at) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[at..];
    let (Some(open), Some(close)) = (body.find('['), body.find(']')) else {
        return Vec::new();
    };
    body[open + 1..close]
        .split('}')
        .filter_map(|obj| Some((string_field(obj, "name")?, string_field(obj, "unit")?)))
        .collect()
}

/// The value of `"key": "..."` in one flat JSON object.
fn string_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let at = obj.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = obj[at..]
        .trim_start()
        .strip_prefix(':')?
        .trim_start()
        .strip_prefix('"')?;
    rest.get(..rest.find('"')?)
}

/// Largest share of a traced operation's time that may lie outside every
/// layer span before a traced run counts a failed check: beyond it, some
/// of the operation's work is not attributed to any layer.
const UNATTRIBUTED_BOUND_PCT: f64 = 5.0;

/// Operations shorter than this are measured against it instead: the
/// tracer's own bookkeeping, a few hundred nanoseconds per operation,
/// would otherwise exceed the bound on single edits of a few µs.
const UNATTRIBUTED_FLOOR_S: f64 = 40e-6;

/// The metrics as computed, by name; units come from BENCHMARK.json.
type Metrics = BTreeMap<&'static str, f64>;

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantile `q` of `v`, interpolated linearly between ranks (0 when
/// `v` is empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Whether another pass fits: at least one, then only while the mean
/// pass so far still fits in what is left of `budget` seconds.
pub fn more(start: Instant, budget: f64, done: usize) -> bool {
    let used = start.elapsed().as_secs_f64();
    done < 1 || used + used / done as f64 <= budget
}

/// Runs `pass` once, then while another pass fits in `budget` seconds;
/// returns what each pass reported.
pub fn repeat(budget: f64, mut pass: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while more(start, budget, out.len()) {
        out.push(pass());
    }
    out
}

/// Appends per-item samples of one slice to those of earlier slices.
pub fn merge(
    per_item: &mut BTreeMap<&'static str, Vec<Vec<f64>>>,
    key: &'static str,
    items: Vec<Vec<f64>>,
) {
    let slot = per_item
        .entry(key)
        .or_insert_with(|| vec![Vec::new(); items.len()]);
    for (s, e) in slot.iter_mut().zip(items) {
        s.extend(e);
    }
}

/// Per-pass times for one phase: untraced (end-to-end) and traced.
#[derive(Default)]
pub struct PhaseTimes {
    pub e2e: Vec<f64>,
    pub traced: Vec<f64>,
}

/// Per-doubling growth of a per-item cost: `(c(x_max)/c(x_min))^(1 /
/// log2(x_max/x_min))` over `(x, cost per item)` points — 1 for linear
/// total cost, 2 for quadratic. 0 when the points span less than one
/// doubling.
pub fn per_doubling(points: &[(f64, f64)]) -> f64 {
    let lo = points.iter().min_by(|a, b| a.0.total_cmp(&b.0));
    let hi = points.iter().max_by(|a, b| a.0.total_cmp(&b.0));
    match (lo, hi) {
        (Some(&(x0, c0)), Some(&(x1, c1))) if x1 >= 2.0 * x0 && c0 > 0.0 => {
            (c1 / c0).powf(1.0 / (x1 / x0).log2())
        }
        _ => 0.0,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload")
        .and_then(Workload::parse)
        .ok_or("--workload must be docs-bulk, docs-deep or schemas-large")?;
    let seed = value("--seed")
        .and_then(|s| s.parse().ok())
        .ok_or("--seed must be a non-negative integer")?;
    let seconds: f64 = value("--seconds")
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0 && s <= 600.0)
        .ok_or("--seconds must be in (0, 600]")?;
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return Err("--trace must be 0 or 1".into()),
    };
    let cli = PathBuf::from(value("--cli").ok_or("--cli <path to bonxai> is required")?);
    let work_dir = PathBuf::from(value("--work-dir").ok_or("--work-dir <dir> is required")?);
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        cli,
        work_dir,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(host::SPAWN_FLAG) {
        let code = match argv.get(2) {
            Some(program) => host::spawn_measure(program, &argv[3..]),
            None => 2,
        };
        std::process::exit(code);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !args.cli.is_file() {
        eprintln!("perfbench: no CLI binary at {}", args.cli.display());
        std::process::exit(2);
    }
    // Deep documents recurse in some library paths (serializer, oracle):
    // give the run a large stack.
    let worker = std::thread::Builder::new()
        .name("perfbench".into())
        .stack_size(1 << 30)
        .spawn(move || run(&args))
        .expect("spawn the benchmark thread");
    let code = worker.join().unwrap_or_else(|_| {
        eprintln!("perfbench: the benchmark panicked");
        3
    });
    std::process::exit(code);
}

fn write_inputs(inputs: &Inputs, run_dir: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(run_dir)?;
    std::fs::write(run_dir.join("schema.bonxai"), &inputs.docs.schema_src)?;
    for d in &inputs.docs.docs {
        std::fs::write(run_dir.join(&d.file), &d.text)?;
    }
    Ok(())
}

/// Builds the inputs `reps` times, timing each build and checking that
/// every build is byte-identical.
fn setup(workload: Workload, seed: u64, reps: usize, tally: &mut Tally) -> (Inputs, Vec<f64>) {
    let mut times = Vec::new();
    let mut first: Option<Inputs> = None;
    let started = Instant::now();
    // `reps` builds, and more while they take under a second in all,
    // so that a quick setup is not a single short region.
    while times.len() < reps
        || (reps > 1 && times.len() < 15 && started.elapsed().as_secs_f64() < 1.0)
    {
        let t0 = Instant::now();
        let inputs = inputs::build(workload, seed);
        progress(format_args!("inputs built"));
        docs::reference_check(&inputs, tally);
        times.push(t0.elapsed().as_secs_f64());
        match &first {
            None => first = Some(inputs),
            Some(f) => tally.check(f.digest == inputs.digest, || {
                "inputs differ between two builds from one seed".into()
            }),
        }
    }
    (first.expect("at least one setup"), times)
}

fn run_dir_for(args: &Args, tag: &str) -> PathBuf {
    args.work_dir.join(format!(
        "{}-s{}-{}-p{}",
        args.workload.name(),
        args.seed,
        tag,
        std::process::id()
    ))
}

/// The checking pass: every output checked once, work counted.
fn check_pass(ctx: &Ctx, tally: &mut Tally) -> (Counts, docs::Expected) {
    let mut counts = Counts::new();
    schemas::check(ctx, tally, &mut counts);
    let expected = docs::check(ctx, tally, &mut counts);
    (counts, expected)
}

fn counts_digest(counts: &Counts) -> u64 {
    let mut h = Fnv::default();
    for (k, v) in counts {
        h.str(k);
        h.u64(v.to_bits());
    }
    h.0
}

fn run(args: &Args) -> i32 {
    const SETUP_REPS: usize = 3;
    const CYCLES: usize = 30;
    let jiffies0 = host::cpu_jiffies();
    let mut tally = Tally::default();
    let (inputs, setup_times) = setup(args.workload, args.seed, SETUP_REPS, &mut tally);
    let run_dir = run_dir_for(args, "run");
    if let Err(e) = write_inputs(&inputs, &run_dir) {
        eprintln!("perfbench: cannot write inputs: {e}");
        return 2;
    }
    let ctx = Ctx {
        inputs: &inputs,
        run_dir: run_dir.clone(),
        cli: args.cli.clone(),
        seed: args.seed,
    };
    let (counts, expected) = check_pass(&ctx, &mut tally);

    // In a traced run, half of each phase's budget runs untraced and half
    // traced, so the overhead and the residual compare like with like.
    let mut tracer = Tracer::new(false);
    let mut times: BTreeMap<&'static str, PhaseTimes> = BTreeMap::new();
    let mut per_item: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
    let mut edit = docs::EditTimes::default();
    let mut cli = docs::CliTimes::default();
    let schema_ctx = schemas::Prepared::new(&ctx);
    let doc_ctx = docs::Prepared::new(&ctx);
    let mut session: Option<docs::EditSession> = None;
    // The phases take turns in short slices, so that every metric samples
    // the whole measured window rather than one stretch of it: host speed
    // on shared machines drifts over seconds. Each slice adds to what a
    // phase is owed; a phase whose pass is longer than a slice runs in
    // every few cycles instead of overrunning.
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut owed: BTreeMap<(Phase, bool), (f64, f64)> = BTreeMap::new();
    for cycle in 0..CYCLES {
        progress(format_args!("cycle {}/{CYCLES}", cycle + 1));
        for (phase, weight) in args.workload.weights() {
            for &traced in halves {
                let slice = args.seconds * weight / (CYCLES * halves.len()) as f64;
                let (due, pass) = owed.entry((phase, traced)).or_insert((0.0, 0.0));
                *due += slice;
                if *due < *pass / 2.0 {
                    continue;
                }
                let b = *due;
                tracer.set_on(traced);
                let started = Instant::now();
                let passes = match phase {
                    Phase::Edit => docs::edit_phase(
                        &doc_ctx,
                        &mut session,
                        &mut tracer,
                        b,
                        &mut edit,
                        &mut tally,
                    ),
                    Phase::Cli => {
                        docs::cli_phase(&ctx, &expected, &mut tracer, b, &mut cli, &mut tally)
                    }
                    _ => {
                        let (name, passes) = match phase {
                            Phase::Stream | Phase::Tree => {
                                docs::timed_phase(phase, &doc_ctx, &mut tracer, b, &mut per_item)
                            }
                            _ => schemas::timed_phase(
                                phase,
                                &schema_ctx,
                                &mut tracer,
                                b,
                                &mut per_item,
                            ),
                        };
                        let n = passes.len();
                        let slot = times.entry(name).or_default();
                        if traced {
                            slot.traced.extend(passes);
                        } else {
                            slot.e2e.extend(passes);
                        }
                        n
                    }
                };
                tracer.set_on(false);
                let spent = started.elapsed().as_secs_f64();
                let (due, pass) = owed.get_mut(&(phase, traced)).expect("entry made above");
                *due -= spent;
                *pass = spent / passes.max(1) as f64;
            }
        }
    }
    tracer.set_on(false);
    let steal = host::steal_pct(jiffies0, host::cpu_jiffies());

    let mut m = Metrics::new();
    let bytes: f64 = inputs.docs.docs.iter().map(|d| d.text.len() as f64).sum();
    let mib = bytes / (1024.0 * 1024.0);
    let e2e = |k: &str| times.get(k).map_or(0.0, |t| median(&t.e2e));
    let mut notes: Vec<String> = Vec::new();
    let mut unattributed = 0.0;
    if args.trace {
        unattributed = layer_metrics(
            &tracer, &mut m, &times, &per_item, &edit, &cli, &inputs, mib, &mut notes,
        );
        tally.check(unattributed <= UNATTRIBUTED_BOUND_PCT, || {
            format!("{unattributed:.2}% of a traced operation lies outside every layer span")
        });
        for (k, v) in &counts {
            m.insert(k, *v);
        }
        // Demoted from end to end: across runs of identical work they
        // swing with the host more than any bound allows (CHANGES.md).
        m.insert("cli_validate_s", median(&cli.e2e));
        m.insert("recompile_s", e2e("recompile"));
        m.insert("host.nproc", host::nproc() as f64);
        m.insert("host.steal_pct", steal);
        m.insert("failed", 0.0);
    } else {
        m.insert("setup_s", median(&setup_times));
        m.insert("compile_s", e2e("compile"));
        m.insert("lint_s", e2e("lint"));
        m.insert("sat_s", e2e("sat"));
        m.insert("diff_s", e2e("diff"));
        m.insert("translate_s", e2e("translate"));
        m.insert("stream_mib_s", mib / e2e("stream"));
        m.insert("tree_mib_s", mib / e2e("tree"));
        m.insert("peak_rss_mib", median(&cli.rss_mib));
        m.insert("edit_p50_us", quantile(&edit.e2e_us, 0.5));
        m.insert("edit_p90_us", quantile(&edit.e2e_us, 0.9));
    }
    // Exactly the metrics BENCHMARK.json lists, each finite; end-to-end
    // ones positive.
    let listed = listed_metrics(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    });
    tally.check(!listed.is_empty(), || {
        "BENCHMARK.json lists no metrics".into()
    });
    for (name, _) in &listed {
        let v = m.get(*name).copied();
        let ok = v.is_some_and(|v| v.is_finite() && (args.trace || v > 0.0));
        tally.check(ok, || format!("metric {name} is {v:?}"));
    }
    for name in m.keys() {
        tally.check(listed.iter().any(|(n, _)| n == name), || {
            format!("metric {name} is not listed in BENCHMARK.json")
        });
    }
    if args.trace {
        m.insert("failed", tally.failed as f64);
    }

    // Record header, then the result as the last line.
    let traced_pct = |k: &str| {
        m.get(k)
            .map_or_else(|| "null".to_owned(), |v| format!("{v:.3}"))
    };
    let mut header = String::new();
    let _ = write!(
        header,
        "{{\"header\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"rev\":\"{}\",\"source_digest\":\"{}\",\"nproc\":{},\"simd\":\"{}\",\
         \"steal_pct\":{:.3},\"input_digest\":\"{:016x}\",\"work_digest\":\"{:016x}\",\
         \"edits\":{},\"edit_live_violations\":{:.1},\"trace_overhead_pct\":{},\
         \"trace_residual_pct\":{},\"trace_unattributed_pct\":{:.3},\
         \"trace_unattributed_bound_pct\":{},\"notes\":[{}]}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::git_rev(),
        host::source_digest(),
        host::nproc(),
        xmltree::Engine::detect().name(),
        steal,
        inputs.digest,
        counts_digest(&counts),
        edit.e2e_us.len() + edit.traced_us.len(),
        edit.live_violations(),
        traced_pct("trace.overhead_pct"),
        traced_pct("trace.residual_pct"),
        unattributed,
        UNATTRIBUTED_BOUND_PCT,
        notes
            .iter()
            .map(|n| format!("\"{}\"", n.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{header}");
    if args.trace {
        let path = args.work_dir.join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = std::fs::write(&path, tracer.to_json_lines()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit)) in listed.iter().enumerate() {
        let v = m.get(*name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}",
            if i == 0 { "" } else { "," }
        );
    }
    out.push_str("}}");
    println!("{out}");
    0
}

/// Median time of the operations named `root` outside every layer span,
/// as a share (%) of their median duration or of `UNATTRIBUTED_FLOOR_S`,
/// whichever is larger.
fn unattributed_pct(t: &Tracer, root: &str) -> f64 {
    let (outside, duration) = t.unattributed(root);
    outside / duration.max(UNATTRIBUTED_FLOOR_S) * 100.0
}

/// Per-layer numbers from the traced passes. Returns the largest share
/// (%) of a traced operation that no layer span covers.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    t: &Tracer,
    m: &mut Metrics,
    times: &BTreeMap<&'static str, PhaseTimes>,
    per_item: &BTreeMap<&'static str, Vec<Vec<f64>>>,
    edit: &docs::EditTimes,
    cli: &docs::CliTimes,
    inputs: &Inputs,
    mib: f64,
    notes: &mut Vec<String>,
) -> f64 {
    let l = |root: &str, name: &str| t.layer(root, name);
    m.insert("xmltree.stream.lex_mib_s", mib / t.covered("op.lex"));
    m.insert(
        "xmltree.parser.parse_mib_s",
        mib / l("op.tree", "xmltree.parser"),
    );
    m.insert("core.validate.tree_s", l("op.tree", "core.validate.tree"));
    m.insert(
        "core.validate.compile_s",
        l("op.tree", "core.validate.compile"),
    );
    m.insert(
        "core.constraints.check_s",
        l("op.tree", "core.constraints.check"),
    );
    let stream = l("op.stream", "core.validate.stream");
    m.insert("core.validate.stream_s", stream);
    m.insert("core.validate.stream_self_s", stream - t.covered("op.lex"));
    m.insert(
        "core.lang.schema_parse_s",
        l("op.compile", "core.lang.schema_parse"),
    );
    m.insert("relang.subset_s", l("op.compile", "relang.subset"));
    m.insert("relang.matcher_s", l("op.compile", "relang.matcher"));
    m.insert("relang.relevance_s", l("op.compile", "relang.relevance"));
    m.insert("relang.minimize_s", t.covered("op.minimize"));
    m.insert("core.lint_s", l("op.lint", "core.lint"));
    m.insert("core.analysis.sat_s", l("op.sat", "core.analysis.sat"));
    m.insert("core.analysis.diff_s", l("op.diff", "core.analysis.diff"));
    m.insert(
        "core.translate.to_xsd_s",
        l("op.translate", "core.translate.to_xsd"),
    );
    m.insert(
        "core.translate.from_xsd_s",
        l("op.translate", "core.translate.from_xsd"),
    );
    m.insert(
        "core.pipeline.recompile_s",
        l("op.recompile", "core.pipeline.recompile"),
    );
    m.insert("core.pipeline.cold_compile_s", t.covered("op.cold_compile"));
    let lib = |k: &str| {
        per_item
            .get(k)
            .map_or(0.0, |v| v.first().map_or(0.0, |x| median(x)))
    };
    m.insert("core.analysis.diff.build_us", lib("diff.build_us"));
    m.insert("core.analysis.diff.compare_us", lib("diff.compare_us"));

    let us = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|s| s * 1e6).collect() };
    let apply = us(t.durations("xmltree.tree.edit_apply"));
    let reval = us(t.durations("core.incremental.revalidate"));
    m.insert("xmltree.tree.edit_apply_p50_us", quantile(&apply, 0.5));
    m.insert("core.incremental.revalidate_p50_us", quantile(&reval, 0.5));
    m.insert("core.incremental.revalidate_p90_us", quantile(&reval, 0.9));
    m.insert("core.incremental.revalidate_p99_us", quantile(&reval, 0.99));
    m.insert(
        "core.incremental.persistent_s",
        median(&t.durations("core.incremental.persistent")),
    );
    m.insert("core.incremental.passes_per_edit", edit.passes_per_edit());
    m.insert("core.incremental.live_violations", edit.live_violations());
    m.insert("core.incremental.full_runs", edit.full_runs as f64);

    let inproc = median(&cli.inproc);
    m.insert(
        "core.batch.validate_paths_s",
        l("op.cli_inproc", "core.batch.validate_paths"),
    );
    m.insert("cli.residual_s", median(&cli.e2e) - inproc);

    // Layer self times against the untraced end-to-end times, for every
    // operation however short. The residual also carries the difference
    // between the traced and the untraced passes of this run (host noise
    // as much as tracing cost), so only the part no layer span covers is
    // bounded. An operation never timed both ways is entirely missed.
    let mut overhead: f64 = 0.0;
    let mut residual: f64 = 0.0;
    let mut unattributed: f64 = 0.0;
    for (name, root) in [
        ("compile", "op.compile"),
        ("lint", "op.lint"),
        ("sat", "op.sat"),
        ("diff", "op.diff"),
        ("translate", "op.translate"),
        ("recompile", "op.recompile"),
        ("stream", "op.stream"),
        ("tree", "op.tree"),
    ] {
        let Some(pt) = times
            .get(name)
            .filter(|pt| !pt.e2e.is_empty() && !pt.traced.is_empty())
        else {
            residual = 100.0;
            unattributed = 100.0;
            notes.push(format!("{name}: not timed both traced and untraced"));
            continue;
        };
        let u = median(&pt.e2e);
        let covered = t.covered(root);
        let o = (median(&pt.traced) - u) / u * 100.0;
        let r = (u - covered).abs() / u * 100.0;
        let gap = unattributed_pct(t, root);
        if o.abs() > overhead.abs() {
            overhead = o;
        }
        residual = residual.max(r);
        unattributed = unattributed.max(gap);
        notes.push(format!(
            "{name}: e2e {u:.6}s, layers {covered:.6}s, residual {r:.2}%, unattributed {gap:.2}%, \
             overhead {o:.2}%, largest self {}",
            t.largest(root)
        ));
    }
    let eu = median(&edit.e2e_us);
    let edit_ops = t.ops("op.edit");
    if eu > 0.0 && !edit_ops.is_empty() {
        let layers = median(
            &edit_ops
                .iter()
                .map(|l| l.values().sum::<f64>() * 1e6)
                .collect::<Vec<_>>(),
        );
        let r = (eu - layers).abs() / eu * 100.0;
        let gap = unattributed_pct(t, "op.edit");
        residual = residual.max(r);
        unattributed = unattributed.max(gap);
        notes.push(format!(
            "edit: e2e p50 {eu:.3}us, layers p50 {layers:.3}us, residual {r:.2}%, unattributed {gap:.2}%"
        ));
    } else {
        residual = 100.0;
        unattributed = 100.0;
        notes.push("edit: not timed both traced and untraced".into());
    }
    m.insert("trace.overhead_pct", overhead);
    m.insert("trace.residual_pct", residual);

    // Scaling probes.
    let item = |k: &str| -> Vec<f64> {
        per_item
            .get(k)
            .map_or_else(Vec::new, |v| v.iter().map(|x| median(x)).collect())
    };
    let sizes: Vec<f64> = inputs.schemas.iter().map(|s| s.rules as f64).collect();
    let probe = |costs: Vec<f64>| -> f64 {
        // Only the k = 1 members span the size classes.
        let pts: Vec<(f64, f64)> = inputs
            .schemas
            .iter()
            .zip(costs.iter())
            .zip(&sizes)
            .filter(|((s, _), _)| s.k == Some(1) && s.label.starts_with("k1-"))
            .map(|((_, c), n)| (*n, c / n))
            .collect();
        per_doubling(&pts)
    };
    m.insert("scale.compile_per_rule_x2", probe(item("compile")));
    m.insert("scale.subset_per_rule_x2", probe(item("subset")));
    m.insert("scale.lint_per_rule_x2", probe(item("lint")));
    let depth_probe = |costs: Vec<f64>| -> f64 {
        let pts: Vec<(f64, f64)> = inputs
            .docs
            .docs
            .iter()
            .zip(costs.iter())
            .filter(|(d, _)| d.expect_valid && d.depth > 256)
            .map(|(d, c)| (d.depth as f64, c / d.elements as f64))
            .collect();
        per_doubling(&pts)
    };
    m.insert("scale.tree_per_element_x2", depth_probe(item("tree")));
    m.insert("scale.stream_per_element_x2", depth_probe(item("stream")));
    notes.push(format!(
        "largest self time under tree_mib_s: {}",
        t.largest("op.tree")
    ));
    notes.push(format!(
        "largest self time under compile_s: {}",
        t.largest("op.compile")
    ));
    unattributed
}
