//! The measurement loop shared by the five workloads: set-up with one
//! untimed warm-up pass at 1/10 size inside it, the peak-memory reading
//! over the first timed pass, timed passes until `--seconds` is spent,
//! repeated set-ups (the median is reported), output checks outside the
//! timed section, and — in the traced run — span bookkeeping and the
//! workload's micro-probes.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calls::json::Value;
use crate::calls::Digest;
use crate::jsonw::{compact, int, obj, text};
use crate::schema::{schema, FAILED_SHARE, WORKLOAD_END_TO_END};
use crate::stats::{median, min_median_max};
use crate::trace;

/// Size factor of the `--smoke` run.
pub const SMOKE_SCALE: f64 = 1.0 / 50.0;
/// Size factor of the warm-up pass inside set-up.
const WARMUP_SCALE: f64 = 0.1;
/// A full run sets up three to nine times: past the third, until set-up
/// has taken this long in total.
const SETUP_BUDGET_SECS: f64 = 2.0;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Per-pass recorder handed to a workload: every call into a product
/// layer goes through [`Ctx::call`], which opens a harness span and keeps
/// the call's wall time under the span's name.
#[derive(Default)]
pub struct Ctx {
    values: Vec<(&'static str, f64)>,
}

impl Ctx {
    /// Runs `f` inside a span named `name`, recording its seconds.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _span = trace::span(name);
        let started = Instant::now();
        let out = f();
        self.values.push((name, started.elapsed().as_secs_f64()));
        out
    }

    /// Records a figure the product itself reported for this pass.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The most recent value recorded under `name` in this pass.
    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// What a workload reports about one finished pass, computed outside the
/// timed section.
pub struct PassOut {
    /// Operations the pass performed (the workload's `op`).
    pub ops: u64,
    /// Wall seconds those operations took, when that is a phase of the
    /// pass rather than all of it.
    pub op_secs: Option<f64>,
    /// Operations that failed.
    pub failed: u64,
    /// Digest of the pass's outputs; equal inputs must give equal digests.
    pub digest: Digest,
    /// Workload-specific end-to-end figures, by their `run`/`agree` name.
    pub extra: Vec<(&'static str, f64)>,
}

/// Output checks: how many were made and which failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; `ok == false` records `what` as a failure.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Per-layer metric values of a traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a declared per-layer metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            schema().per_layer.iter().any(|m| m.name == name),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// One of the five workloads.
pub trait Workload {
    /// Generated inputs (never timed as part of a pass).
    type Input;
    /// What a timed pass hands to the untimed summary and checks.
    type Output;

    const NAME: &'static str;

    /// The input sizes at `scale`, for the result header.
    fn sizes(scale: f64) -> Vec<(&'static str, u64)>;
    /// Builds the inputs from the seed.
    fn setup(seed: u64, scale: f64) -> Self::Input;
    /// The timed pass: product calls only, each through `ctx.call`.
    fn pass(input: &Self::Input, ctx: &mut Ctx) -> Self::Output;
    /// Op count, failures, digest and workload-specific figures of a pass.
    fn summarize(input: &Self::Input, output: &Self::Output) -> PassOut;
    /// Output checks, outside the timed section.
    fn check(input: &Self::Input, output: &Self::Output, checks: &mut Checks);
    /// Traced run only: micro-probes for layers that only run inside
    /// another call, on inputs sampled from the last pass's output (which
    /// the workload may drop when it needs the memory back).
    fn probes(input: &Self::Input, output: Self::Output, l: &mut Layers);
}

struct PassRecord {
    wall_secs: f64,
    ops_per_s: f64,
    traced: bool,
    values: Vec<(&'static str, f64)>,
    unattributed_pct: f64,
}

/// Everything one invocation measured.
pub struct Outcome {
    pub workload: &'static str,
    pub opts: Opts,
    pub sizes: Vec<(&'static str, u64)>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub digest: Digest,
    /// `(min, median, max)` of the untraced passes' ops/s.
    pub ops_per_s: (f64, f64, f64),
    pub setup_s: (f64, f64, f64),
    /// How many set-ups `setup_s` summarizes.
    pub setups: usize,
    pub peak_rss_mb: f64,
    /// Whether the peak could be restarted after set-up (see
    /// [`restart_peak_rss`]); if not it includes the input generator.
    pub peak_excludes_setup: bool,
    /// Workload-specific end-to-end figures (median over passes).
    pub extra: Vec<(&'static str, f64)>,
    /// Per-layer values; empty unless traced.
    pub layers: Layers,
    /// Self time per span name, mean seconds per traced pass.
    pub attribution: Vec<(&'static str, f64)>,
    pub pass_wall_s: f64,
}

/// Runs workload `W` as `opts` asks.
pub fn run<W: Workload>(opts: &Opts) -> Outcome {
    let scale = if opts.smoke { SMOKE_SCALE } else { 1.0 };
    let (min_setups, max_setups, min_passes) = match (opts.smoke, opts.trace) {
        (true, false) => (1, 1, 1),
        (true, true) => (1, 1, 2),
        (false, false) => (3, 9, 3),
        (false, true) => (3, 9, 4),
    };

    // Set-up: inputs at full size, then an untimed-as-a-pass warm-up at a
    // tenth of the size so lazy initialisation and the allocator's first
    // growth are paid before timing.
    let set_up = || {
        let started = Instant::now();
        let full = W::setup(opts.seed, scale);
        {
            let warm = W::setup(opts.seed, scale * WARMUP_SCALE);
            let _ = W::pass(&warm, &mut Ctx::default());
        }
        (full, started.elapsed().as_secs_f64())
    };
    let (input, first_setup) = set_up();
    let mut setup_secs = vec![first_setup];
    // From here on the peak is the first timed pass's (plus the inputs it
    // reads), not the input generator's.
    let peak_excludes_setup = restart_peak_rss();
    let mut peak_rss_mb = 0.0;

    let mut records: Vec<PassRecord> = Vec::new();
    let mut summaries: Vec<PassOut> = Vec::new();
    let mut last: Option<W::Output> = None;
    let mut spans: Vec<trace::SpanRec> = Vec::new();
    let cpu_before = cpu_seconds();
    let mut timed_wall = 0.0;
    loop {
        // The traced run alternates untraced and traced passes, so the
        // overhead figure compares like with like inside one process.
        let traced = opts.trace && records.len() % 2 == 1;
        drop(last.take());
        let mut ctx = Ctx::default();
        trace::set_pass(records.len() as u32);
        trace::set_enabled(traced);
        let started = Instant::now();
        let output = {
            let _root = trace::span("pass");
            W::pass(&input, &mut ctx)
        };
        let wall_secs = started.elapsed().as_secs_f64();
        trace::set_enabled(false);
        if records.is_empty() {
            // Later passes run on a heap that still holds what the passes
            // before them freed; that padding is the harness's.
            peak_rss_mb = status_mb("VmHWM:");
        }
        timed_wall += wall_secs;

        let pass_spans = trace::take();
        let unattributed_pct = match pass_spans.iter().position(|s| s.parent.is_none()) {
            Some(root) if pass_spans[root].dur_ns() > 0 => {
                100.0 * trace::unattributed_ns(&pass_spans, root) as f64
                    / pass_spans[root].dur_ns() as f64
            }
            _ => 0.0,
        };
        rebase_and_append(&mut spans, pass_spans);

        let summary = W::summarize(&input, &output);
        let op_secs = summary.op_secs.unwrap_or(wall_secs);
        records.push(PassRecord {
            wall_secs,
            ops_per_s: summary.ops as f64 / op_secs.max(1e-9),
            traced,
            values: ctx.values,
            unattributed_pct,
        });
        summaries.push(summary);
        last = Some(output);
        if records.len() >= min_passes && timed_wall >= opts.seconds {
            break;
        }
    }
    let cpu_s = cpu_seconds() - cpu_before;
    let output = last.expect("at least one pass ran");

    // Set-up again, for the median; these inputs are dropped at once. A
    // set-up of a fraction of a second is repeated more often, because its
    // time is mostly scheduling noise.
    while setup_secs.len() < min_setups
        || (setup_secs.len() < max_setups && setup_secs.iter().sum::<f64>() < SETUP_BUDGET_SECS)
    {
        setup_secs.push(set_up().1);
    }

    // Output checks, outside the timed section.
    let mut checks = Checks::default();
    for (i, s) in summaries.iter().enumerate().skip(1) {
        checks.expect(s.digest == summaries[0].digest, || {
            format!("pass {i} digest differs from pass 0")
        });
    }
    W::check(&input, &output, &mut checks);

    let untraced: Vec<f64> = rates(&records, false);
    let ops_per_s = min_median_max(&untraced);
    // Every pass of a workload reports the same extra figures, in order.
    let extra: Vec<(&'static str, f64)> = summaries[0]
        .extra
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = summaries.iter().map(|s| s.extra[i].1).collect();
            (*name, median(&values))
        })
        .collect();

    let mut layers = Layers::default();
    let mut attribution = Vec::new();
    if opts.trace {
        let traced: Vec<&PassRecord> = records.iter().filter(|r| r.traced).collect();
        // Span seconds and product-reported notes: median over traced passes.
        for m in &schema().per_layer {
            let vals: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.values.iter().rev().find(|(n, _)| *n == m.name))
                .map(|(_, v)| *v)
                .collect();
            if !vals.is_empty() {
                layers.set(m.name, median(&vals));
            }
        }
        for (metric, _, alias) in WORKLOAD_END_TO_END {
            if let Some((_, v)) = extra.iter().find(|(n, _)| *n == metric.name) {
                layers.set(alias, *v);
            }
        }
        W::probes(&input, output, &mut layers);
        let traced_rate = median(&rates(&records, true));
        layers.set("proc.cpu_s", cpu_s);
        layers.set("proc.cpu_util", cpu_s / timed_wall.max(1e-9));
        layers.set(
            "trace.overhead_pct",
            100.0 * (1.0 - traced_rate / ops_per_s.1.max(1e-9)),
        );
        let unattributed: Vec<f64> = traced.iter().map(|r| r.unattributed_pct).collect();
        layers.set("trace.unattributed_pct", median(&unattributed));
        attribution = attribute(&spans, traced.len());
        write_trace(W::NAME, &spans);
    }

    let walls: Vec<f64> = records.iter().map(|r| r.wall_secs).collect();
    let failed_ops: u64 = summaries.iter().map(|s| s.failed).sum();
    Outcome {
        workload: W::NAME,
        opts: opts.clone(),
        sizes: W::sizes(scale),
        passes: records.len(),
        attempted: summaries.iter().map(|s| s.ops).sum::<u64>() + checks.attempted,
        failed: failed_ops + checks.failures.len() as u64,
        failures: checks.failures,
        digest: summaries[0].digest,
        ops_per_s,
        setup_s: min_median_max(&setup_secs),
        setups: setup_secs.len(),
        peak_rss_mb,
        peak_excludes_setup,
        extra,
        layers,
        attribution,
        pass_wall_s: median(&walls),
    }
}

fn rates(records: &[PassRecord], traced: bool) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.traced == traced)
        .map(|r| r.ops_per_s)
        .collect()
}

/// Appends one pass's spans to the run's list, shifting parent indexes.
fn rebase_and_append(all: &mut Vec<trace::SpanRec>, pass: Vec<trace::SpanRec>) {
    let base = all.len();
    all.extend(pass.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self seconds per span name per traced pass, largest first.
fn attribute(spans: &[trace::SpanRec], traced_passes: usize) -> Vec<(&'static str, f64)> {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(trace::self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += self_ns;
    }
    let mut out: Vec<(&'static str, f64)> = by_name
        .into_iter()
        .map(|(n, ns)| (n, ns as f64 / 1e9 / traced_passes.max(1) as f64))
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when run from a checkout root (as the driver does), else the
/// directory this package was compiled from.
pub fn bench_dir() -> std::path::PathBuf {
    let local = std::path::Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

fn write_trace(workload: &str, spans: &[trace::SpanRec]) {
    let dir = bench_dir().join("out");
    let path = dir.join(format!("TRACE_{workload}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
    match written {
        Ok(()) => eprintln!("wrote {} ({} spans)", path.display(), spans.len()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

/// A field of `/proc/self/status` in kB, as MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Makes `VmHWM` count from what is resident now: hands the pages set-up
/// freed back to the kernel (glibc keeps them otherwise, and the generator
/// frees several times what the inputs hold), then clears the kernel's
/// high-water mark. Returns whether the mark was cleared.
fn restart_peak_rss() -> bool {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointers and may be called at any
        // time; no other thread of this process is running.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Current resident set of this process (`VmRSS`), MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// User + system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (fields 14 and 15, in `USER_HZ` = 100 ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The metrics of the result line: every end-to-end metric untraced,
    /// every per-layer metric traced.
    pub fn metrics(&self) -> Vec<(&'static str, &'static str, f64)> {
        if self.opts.trace {
            schema()
                .per_layer
                .iter()
                .map(|m| (m.name, m.unit, self.layers.get(m.name)))
                .collect()
        } else {
            let value = |name: &str| match name {
                "setup_s" => self.setup_s.1,
                "ops_per_s" => self.ops_per_s.1,
                "peak_rss_mb" => self.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            schema()
                .end_to_end
                .iter()
                .map(|m| (m.name, m.unit, value(m.name)))
                .collect()
        }
    }

    /// The last stdout line the driver reads.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics().into_iter().map(|(name, unit, value)| {
            let entry = obj([("value", Value::Float(value)), ("unit", text(unit))]);
            (name, entry)
        });
        compact(&obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", int(self.attempted.max(1))),
            ("failed", int(self.failed)),
            ("metrics", obj(metrics)),
        ]))
    }

    /// One JSON line with what the result line has no room for: header
    /// fields, digest, pass spread and the workload-specific end-to-end
    /// figures. `run` and `agree` read it.
    pub fn detail_line(&self) -> String {
        let spread = |(min, median, max): (f64, f64, f64)| {
            obj([
                ("min", Value::Float(min)),
                ("median", Value::Float(median)),
                ("max", Value::Float(max)),
            ])
        };
        let failed_share = self.failed as f64 / self.attempted.max(1) as f64;
        let mut fields = vec![
            ("workload", text(self.workload)),
            ("seed", int(self.opts.seed)),
            ("trace", Value::Bool(self.opts.trace)),
            ("smoke", Value::Bool(self.opts.smoke)),
            ("passes", int(self.passes as u64)),
            ("pass_wall_s", Value::Float(self.pass_wall_s)),
            ("sizes", obj(self.sizes.iter().map(|(n, v)| (*n, int(*v))))),
            ("output_digest", text(&self.digest.to_hex())),
            (FAILED_SHARE, Value::Float(failed_share)),
            ("ops_per_s", spread(self.ops_per_s)),
            ("setup_s", spread(self.setup_s)),
            ("setups", int(self.setups as u64)),
            ("peak_rss_mb", Value::Float(self.peak_rss_mb)),
        ];
        fields.extend(self.extra.iter().map(|(n, v)| (*n, Value::Float(*v))));
        compact(&obj(fields))
    }

    /// Human-readable report, then the detail line, then the result line.
    pub fn print(&self) {
        let sizes: Vec<String> = self.sizes.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!(
            "workload {} | seed {} | trace {} | {} passes of {:.3}s | {}",
            self.workload,
            self.opts.seed,
            u8::from(self.opts.trace),
            self.passes,
            self.pass_wall_s,
            sizes.join(" ")
        );
        let (lo, med, hi) = self.ops_per_s;
        println!(
            "  {:<34} {med:>16.3} 1/s   (min {lo:.3}, max {hi:.3})",
            "ops_per_s"
        );
        let (lo, med, hi) = self.setup_s;
        println!(
            "  {:<34} {med:>16.4} s     (min {lo:.4}, max {hi:.4}, {} set-ups)",
            "setup_s", self.setups
        );
        println!(
            "  {:<34} {:>16.2} MB{}",
            "peak_rss_mb",
            self.peak_rss_mb,
            if self.peak_excludes_setup {
                ""
            } else {
                "    (includes set-up: /proc/self/clear_refs is not writable)"
            }
        );
        println!(
            "  {:<34} {:>16.6}       ({} failed of {} attempted)",
            FAILED_SHARE,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, value) in &self.extra {
            let unit = WORKLOAD_END_TO_END
                .iter()
                .find(|(m, _, _)| m.name == *name)
                .map_or("", |(m, _, _)| m.unit);
            println!("  {name:<34} {value:>16.3} {unit}");
        }
        for failure in &self.failures {
            println!("  CHECK FAILED: {failure}");
        }
        if self.opts.trace {
            println!("  -- per-layer (0 = not exercised by this workload) --");
            for m in &schema().per_layer {
                let v = self.layers.get(m.name);
                if v != 0.0 {
                    println!("  {:<38} {v:>16.4} {}", m.name, m.unit);
                }
            }
            // Self times partition the `pass` spans, so their sum is the
            // traced passes' mean wall.
            let traced_wall: f64 = self.attribution.iter().map(|(_, s)| s).sum();
            println!("  -- self time per traced pass ({traced_wall:.4} s) --");
            for (name, secs) in &self.attribution {
                println!(
                    "  {name:<38} {secs:>12.4} s  {:>5.1}%",
                    100.0 * secs / traced_wall.max(1e-9)
                );
            }
        }
        println!("output_digest {} {}", self.workload, self.digest.to_hex());
        println!("detail {}", self.detail_line());
        println!("{}", self.result_line());
    }
}
