//! The minctx benchmark: one command that generates every input from a
//! seed, runs one named workload against minctx's public API with its
//! default settings, checks every answer, and prints each metric by name
//! with its unit.  See README.md for the workloads and the metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mix --seed 1 --seconds 10 --trace 0
//! ```

#![forbid(unsafe_code)]

mod classes;
mod ingest;
mod serve_mix;
mod stream_scan;
mod trace;

use minctx_bench::CountingAllocator;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Set-up runs this many times per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Where runs keep scratch files and trace output, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".perfbench";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

const WORKLOADS: [&str; 3] = ["serve-mix", "ingest", "stream-scan"];

/// A seed for one input, derived from the run's seed and a fixed tag.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut s = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5eed_cafe;
    for _ in 0..4 {
        minctx_bench::xorshift(&mut s);
    }
    s | 1
}

/// Fisher–Yates shuffle driven by the workspace's seeded RNG.
pub fn shuffle<T>(items: &mut [T], state: &mut u64) {
    for i in (1..items.len()).rev() {
        let j = (minctx_bench::xorshift(state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// The `q`-quantile of `values` (nearest rank).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Runs `f` while a sampler thread records, per one-second window, the
/// peak live heap above its level when `f` started.  Returns `f`'s result
/// and the median window peak: which concurrent requests overlap at their
/// own peaks varies from run to run, and the median window is steadier
/// than the single largest overlap.  With one op at a time every window
/// sees the same peak, so the median is the overall peak.
pub fn heap_windows<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let live = ALLOC.live();
    ALLOC.reset_peak();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peaks = Vec::new();
            loop {
                let end = Instant::now() + Duration::from_secs(1);
                while !done.load(Ordering::SeqCst) && Instant::now() < end {
                    std::thread::park_timeout(end.saturating_duration_since(Instant::now()));
                }
                if done.load(Ordering::SeqCst) && !peaks.is_empty() {
                    return peaks;
                }
                peaks.push(ALLOC.peak().saturating_sub(live));
                ALLOC.reset_peak();
                if done.load(Ordering::SeqCst) {
                    return peaks;
                }
            }
        });
        let r = f();
        done.store(true, Ordering::SeqCst);
        sampler.thread().unpark();
        let peaks: Vec<f64> = sampler
            .join()
            .expect("heap sampler panicked")
            .into_iter()
            .map(|p| p as f64)
            .collect();
        (r, quantile(&peaks, 0.5) as usize)
    })
}

pub fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// The per-layer metric catalogue: every name a traced run prints, with
/// its unit.  A workload reports 0 for a layer or class it does not
/// exercise.
fn layer_catalogue() -> Vec<(String, &'static str)> {
    let mut c: Vec<(String, &'static str)> = vec![
        ("xml.tokenize_ms".into(), "ms"),
        ("xml.build_ms".into(), "ms"),
        ("xml.tokenizers_created".into(), "count"),
        ("xml.documents_built".into(), "count"),
        ("syntax.parse_us".into(), "us"),
        ("core.rewrite_us".into(), "us"),
        ("core.compile_us".into(), "us"),
        ("core.pred_pair_ratio".into(), "ratio"),
        ("index.write_ms".into(), "ms"),
        ("index.open_ms".into(), "ms"),
        ("index.stamp_us".into(), "us"),
        ("index.snapshot_bytes_per_input_byte".into(), "ratio"),
        ("stream.scan_ms".into(), "ms"),
        ("stream.streamed_frac".into(), "frac"),
        ("serve.queue_wait_p50_us".into(), "us"),
        ("serve.queue_wait_p99_us".into(), "us"),
        ("serve.query_hit_ratio".into(), "frac"),
        ("serve.snapshot_hit_ratio".into(), "frac"),
        ("serve.overhead_ms".into(), "ms"),
        ("obs.trace_overhead_frac".into(), "frac"),
    ];
    for class in &classes::CLASSES {
        let n = class.name;
        c.push((format!("xml.axis_kernel_ms.{n}"), "ms"));
        c.push((format!("core.eval_ms.{n}"), "ms"));
        c.push((format!("core.eval_ms_minctx.{n}"), "ms"));
        if class.predicated {
            c.push((format!("core.predicate_ms.{n}"), "ms"));
        }
        c.push((format!("core.fuel.{n}"), "count"));
        c.push((format!("core.memo_hits.{n}"), "count"));
        c.push((format!("core.memo_misses.{n}"), "count"));
        c.push((format!("serve.class_p50_ms.{n}"), "ms"));
    }
    c
}

/// Per-layer metric values of a traced run; every catalogue name starts
/// at 0.
pub struct Layers(BTreeMap<String, (f64, &'static str)>);

impl Layers {
    fn new() -> Layers {
        Layers(
            layer_catalogue()
                .into_iter()
                .map(|(name, unit)| (name, (0.0, unit)))
                .collect(),
        )
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not in the layer catalogue"));
        slot.0 = value;
    }
}

/// What the measured phase of every workload yields.
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
    pub peak_heap_bytes: usize,
}

/// Everything a run reports.
pub struct Report {
    /// Answers checked and answers that were wrong or failed, over the
    /// measured phase.
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, gated by the benchmark's bounds.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Metrics printed for reading but not gated: they exist on only some
    /// workloads.
    pub extra: Vec<(&'static str, f64, &'static str)>,
    /// Byte size of every generated input.
    pub inputs: Vec<(String, usize)>,
    pub layers: Layers,
    /// Exact per-class counts (traced runs).
    pub exact: Vec<(String, classes::Exact)>,
    /// Span summary and JSON lines (traced runs).
    pub spans: Option<trace::Tracer>,
}

impl Report {
    fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            extra: Vec::new(),
            inputs: Vec::new(),
            layers: Layers::new(),
            exact: Vec::new(),
            spans: None,
        }
    }

    pub fn set_end_to_end(&mut self, m: &Measured) {
        assert!(
            !m.latencies_ms.is_empty(),
            "no op completed in the measured phase"
        );
        self.end_to_end = vec![
            ("setup_s", quantile(&m.setup_s, 0.5), "s"),
            ("ops_per_s", m.latencies_ms.len() as f64 / m.wall_s, "1/s"),
            ("op_p50_ms", quantile(&m.latencies_ms, 0.5), "ms"),
            ("peak_heap_mb", mb(m.peak_heap_bytes), "MB"),
        ];
        self.extra.push((
            "failed_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
        ));
    }
}

/// A scratch directory under [`OUT_DIR`], removed when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Scratch {
        let dir = Path::new(OUT_DIR).join(format!("tmp-{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Scratch(dir)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The CPU model, from the processor's brand string.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for word in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&word.to_le_bytes());
                }
            }
            let s = String::from_utf8_lossy(&bytes);
            return s.trim_matches(char::from(0)).trim().to_string();
        }
    }
    "unknown".to_string()
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let scratch = Scratch::new(&args.workload);
    let mut report = Report::new();
    match args.workload.as_str() {
        "serve-mix" => serve_mix::run(&args, &scratch, &mut report),
        "ingest" => ingest::run(&args, &scratch, &mut report),
        "stream-scan" => stream_scan::run(&args, &scratch, &mut report),
        _ => unreachable!("workload names are checked by parse_args"),
    }
    drop(scratch);
    print_report(&args, &report);
}

fn print_report(args: &Args, report: &Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let inputs: Vec<String> = report
        .inputs
        .iter()
        .map(|(name, bytes)| format!("{}:{bytes}", json_str(name)))
        .collect();
    println!(
        r#"{{"record":{{"workload":{},"seed":{},"seconds":{},"trace":{},"nproc":{nproc},"cpu":{},"rustc":{},"input_bytes":{{{}}}}}}}"#,
        json_str(&args.workload),
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        json_str(&cpu_model()),
        json_str(env!("PERFBENCH_RUSTC_VERSION")),
        inputs.join(",")
    );
    for (name, v, unit) in report.end_to_end.iter().chain(&report.extra) {
        println!("metric {name:<32} {v:>14.4} {unit}");
    }
    let mut metrics: Vec<String> = Vec::new();
    if args.trace {
        if let Some(t) = &report.spans {
            print!("{}", t.summary());
            let path =
                Path::new(OUT_DIR).join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
            match std::fs::write(&path, t.to_jsonl()) {
                Ok(()) => println!("trace spans written to {}", path.display()),
                Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
            }
        }
        let exact: Vec<String> = report
            .exact
            .iter()
            .map(|(class, e)| format!("{}:{}", json_str(class), e.json()))
            .collect();
        println!(r#"{{"exact_counts":{{{}}}}}"#, exact.join(","));
        for (name, (v, unit)) in &report.layers.0 {
            println!("layer {name:<40} {v:>14.4} {unit}");
            metrics.push(format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                json_num(name, *v),
                json_str(unit)
            ));
        }
    } else {
        for (name, v, unit) in &report.end_to_end {
            metrics.push(format!(
                r#"{}:{{"value":{},"unit":{}}}"#,
                json_str(name),
                json_num(name, *v),
                json_str(unit)
            ));
        }
    }
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}
