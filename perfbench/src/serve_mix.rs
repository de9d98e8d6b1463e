//! `serve-mix`: the query service under load.  A default `ServeEngine`
//! serves one snapshot of a 10⁵-element document to closed-loop clients,
//! each keeping one request in flight, over a fixed mix of all ten query
//! classes.

use crate::classes::{self, assert_nonempty, oracle, ItemValues, CLASSES};
use crate::trace::Tracer;
use crate::{
    derive_seed, heap_windows, quantile, shuffle, Args, Measured, Report, Scratch, SETUP_REPS,
};
use minctx_bench::{values_agree, xmark_doc, XmarkConfig};
use minctx_core::{open_snapshot, write_snapshot, Value};
use minctx_serve::{Corpus, ServeEngine};
use minctx_xml::serialize::to_xml_string;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const ELEMENTS: usize = 100_000;

/// Requests per class in one block of the mix, in `CLASSES` order.  The
/// predicated classes carry most of the weight, so the median request is
/// one that evaluates predicates.
const WEIGHTS: [usize; 10] = [1, 1, 1, 3, 3, 1, 1, 1, 1, 1];

/// `pred_value` thresholds are drawn from `0..THRESHOLDS`: far more
/// distinct query texts than the service's 256-entry query cache holds,
/// and each text recurs only after all the others, so every `pred_value`
/// request misses the cache.  Items carry `v` in `0..1000`, so every
/// threshold leaves a non-empty answer.
const THRESHOLDS: u32 = 900;

/// Closed-loop clients, each with one request in flight.
fn clients() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// The request sequence: shuffled blocks of the weighted mix, cycled;
/// `pred_value` texts cycle through a shuffled threshold order.
struct Plan {
    schedule: Vec<usize>,
    next: AtomicUsize,
    value_texts: Vec<String>,
    value_expected: Vec<Value>,
    /// Starts at 1: the first threshold is the warm-up request's.
    next_value: AtomicUsize,
    expected: Vec<Value>,
    names: Vec<String>,
}

impl Plan {
    fn request(&self, class: usize) -> (&str, &Value) {
        if class == classes::PRED_VALUE {
            let k = self.next_value.fetch_add(1, Ordering::Relaxed) % self.value_texts.len();
            (&self.value_texts[k], &self.value_expected[k])
        } else {
            (CLASSES[class].query, &self.expected[class])
        }
    }
}

struct Sample {
    ms: f64,
    ok: bool,
}

/// Runs the closed loop for `duration`; returns every sample, the wall
/// time, and the clients' tracers (disabled unless `traced`).
fn load(
    engine: &ServeEngine,
    corpus: &Corpus,
    plan: &Plan,
    duration: Duration,
    traced: bool,
    epoch: Instant,
) -> (Vec<Sample>, f64, Vec<Tracer>) {
    let start = Instant::now();
    let deadline = start + duration;
    let results: Vec<(Vec<Sample>, Tracer, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients())
            .map(|c| {
                s.spawn(move || {
                    let mut tracer = if traced {
                        Tracer::new(epoch, c as u32 + 1)
                    } else {
                        Tracer::disabled()
                    };
                    let mut samples = Vec::new();
                    while Instant::now() < deadline {
                        let k = plan.next.fetch_add(1, Ordering::Relaxed);
                        let class = plan.schedule[k % plan.schedule.len()];
                        let (text, want) = plan.request(class);
                        let t0 = Instant::now();
                        let reply = tracer.span(&plan.names[class], k as u64, |_| {
                            engine.query(corpus.clone(), text).wait()
                        });
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let ok = matches!(&reply, Ok(v) if values_agree(v, want));
                        samples.push(Sample { ms, ok });
                    }
                    (samples, tracer, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = results
        .iter()
        .map(|r| r.2)
        .max()
        .expect("at least one client");
    let mut samples = Vec::new();
    let mut tracers = Vec::new();
    for (s, t, _) in results {
        samples.extend(s);
        tracers.push(t);
    }
    (samples, (end - start).as_secs_f64(), tracers)
}

pub fn run(args: &Args, scratch: &Scratch, report: &mut Report) {
    let doc = xmark_doc(&XmarkConfig {
        seed: derive_seed(args.seed, 1),
        ..XmarkConfig::sized(ELEMENTS)
    });
    let text_bytes = to_xml_string(&doc).len();
    report.inputs.push(("document_text".into(), text_bytes));

    let values = ItemValues::new(&doc);
    let mut rng = derive_seed(args.seed, 2);
    let mut thresholds: Vec<u32> = (0..THRESHOLDS).collect();
    shuffle(&mut thresholds, &mut rng);
    let value_class = &CLASSES[classes::PRED_VALUE];
    let value_texts: Vec<String> = thresholds.iter().map(|&n| value_class.text(n)).collect();
    let value_expected: Vec<Value> = thresholds.iter().map(|&n| values.above(n)).collect();
    for v in &value_expected {
        assert_nonempty(value_class.name, v);
    }
    let expected: Vec<Value> = CLASSES
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let v = if i == classes::PRED_VALUE {
                value_expected[0].clone()
            } else {
                oracle(&doc, c.query)
            };
            assert_nonempty(c.name, &v);
            v
        })
        .collect();
    let mut block: Vec<usize> = WEIGHTS
        .iter()
        .enumerate()
        .flat_map(|(class, &w)| std::iter::repeat_n(class, w))
        .collect();
    let mut schedule = Vec::new();
    for _ in 0..64 {
        shuffle(&mut block, &mut rng);
        schedule.extend_from_slice(&block);
    }
    let plan = Plan {
        schedule,
        next: AtomicUsize::new(0),
        value_texts,
        value_expected,
        next_value: AtomicUsize::new(1),
        names: CLASSES
            .iter()
            .map(|c| format!("serve.request[{}]", c.name))
            .collect(),
        expected,
    };

    // Set-up: snapshot the document, start the service, and send one
    // request per class so the snapshot is mapped and the caches are warm.
    let path = scratch.path("serve.snap");
    let corpus = Corpus::Snapshot(path.clone());
    let mut setup_s = Vec::new();
    let mut write_ms = Vec::new();
    let mut snapshot_bytes = 0;
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        drop(engine.take());
        let t0 = Instant::now();
        let info = write_snapshot(&doc, &path).expect("write snapshot");
        write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        snapshot_bytes = info.file_len as usize;
        let e = ServeEngine::builder().build();
        for (i, c) in CLASSES.iter().enumerate() {
            let (text, want) = if i == classes::PRED_VALUE {
                (plan.value_texts[0].as_str(), &plan.value_expected[0])
            } else {
                (c.query, &plan.expected[i])
            };
            let got = e
                .query(corpus.clone(), text)
                .wait()
                .expect("warm-up request");
            assert!(
                values_agree(&got, want),
                "warm-up answer of {} is wrong",
                c.name
            );
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let engine = engine.expect("set-up ran");
    report.inputs.push(("snapshot".into(), snapshot_bytes));
    let snapshot_ratio = snapshot_bytes as f64 / text_bytes as f64;

    // Measured phase.  A traced run measures half its time untraced, then
    // half traced, to report the tracing overhead.
    let epoch = Instant::now();
    let untraced = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let tokenizers = minctx_xml::tokenizers_created();
    let documents = minctx_xml::builder::documents_built();
    let ((samples, wall_s, _), peak_heap_bytes) =
        heap_windows(|| load(&engine, &corpus, &plan, untraced, false, epoch));
    let ops = samples.len() as f64;
    let tokenizers = (minctx_xml::tokenizers_created() - tokenizers) as f64 / ops;
    let documents = (minctx_xml::builder::documents_built() - documents) as f64 / ops;

    report.attempted = samples.len() as u64;
    report.failed = samples.iter().filter(|s| !s.ok).count() as u64;
    let latencies: Vec<f64> = samples.iter().map(|s| s.ms).collect();
    report.set_end_to_end(&Measured {
        setup_s,
        latencies_ms: latencies.clone(),
        wall_s,
        peak_heap_bytes,
    });
    // p99 only where at least ten samples lie beyond it.
    let beyond = latencies.len() - (0.99 * latencies.len() as f64).ceil() as usize;
    if beyond >= 10 {
        report
            .extra
            .push(("op_p99_ms", quantile(&latencies, 0.99), "ms"));
    }
    report
        .extra
        .push(("op_p99_samples_beyond", beyond as f64, "count"));
    report.extra.push(("op_samples", ops, "count"));
    report
        .extra
        .push(("snapshot_bytes_per_input_byte", snapshot_ratio, "ratio"));

    if !args.trace {
        return;
    }
    let untraced_p50 = quantile(&latencies, 0.5);
    let before = engine.stats();
    let (traced_samples, _, tracers) = load(
        &engine,
        &corpus,
        &plan,
        args.seconds - untraced,
        true,
        epoch,
    );
    let after = engine.stats();
    let mut t = Tracer::new(epoch, 0);
    for other in tracers {
        t.absorb(other);
    }
    report.attempted += traced_samples.len() as u64;
    report.failed += traced_samples.iter().filter(|s| !s.ok).count() as u64;
    let traced: Vec<f64> = traced_samples.iter().map(|s| s.ms).collect();

    // Replay each class single-threaded through a worker's calls.
    let snap = t.span("index.open_snapshot", 0, |_| {
        open_snapshot(&path).expect("open")
    });
    for op in 1..3 {
        t.span("index.open_snapshot", op, |_| {
            open_snapshot(&path).expect("open")
        });
    }
    let l = &mut report.layers;
    for (i, c) in CLASSES.iter().enumerate() {
        let text = if i == classes::PRED_VALUE {
            plan.value_texts[0].clone()
        } else {
            c.query.to_string()
        };
        let mut exact = classes::replay(
            &mut t,
            &snap,
            Some(&path),
            c,
            &text,
            &plan.expected[i],
            5,
            l,
        );
        exact.snapshot_bytes = snapshot_bytes as u64;
        report.exact.push((c.name.to_string(), exact));
    }
    let all: Vec<&classes::Class> = CLASSES.iter().collect();
    classes::front_end_layers(&t, &all, l);

    let mut overhead = 0.0;
    let mut stamp_ms = Vec::new();
    for c in &CLASSES {
        let class_p50 = t.median_ms(&format!("serve.request[{}]", c.name));
        let stamp = t.median_ms(&format!("index.snapshot_stamp[{}]", c.name));
        let eval = t.median_ms(&format!("core.evaluate_compiled_metered[{}]", c.name));
        l.set(&format!("serve.class_p50_ms.{}", c.name), class_p50);
        overhead += class_p50 - stamp - eval;
        stamp_ms.push(stamp);
    }
    l.set("serve.overhead_ms", overhead / CLASSES.len() as f64);
    l.set("index.stamp_us", quantile(&stamp_ms, 0.5) * 1e3);
    l.set(
        "core.pred_pair_ratio",
        t.median_ms("core.evaluate_compiled_metered[pred_parent]")
            / t.median_ms("core.evaluate_compiled_metered[child_chain]"),
    );
    l.set("index.write_ms", quantile(&write_ms, 0.5));
    l.set("index.open_ms", t.median_ms("index.open_snapshot"));
    l.set("index.snapshot_bytes_per_input_byte", snapshot_ratio);
    l.set("xml.tokenizers_created", tokenizers);
    l.set("xml.documents_built", documents);
    let hit = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    l.set(
        "serve.query_hit_ratio",
        hit(
            after.query_hits - before.query_hits,
            after.query_misses - before.query_misses,
        ),
    );
    l.set(
        "serve.snapshot_hit_ratio",
        hit(
            after.snapshot_hits - before.snapshot_hits,
            after.snapshot_misses - before.snapshot_misses,
        ),
    );
    l.set(
        "serve.queue_wait_p50_us",
        after.queue_wait_p50.as_secs_f64() * 1e6,
    );
    l.set(
        "serve.queue_wait_p99_us",
        after.queue_wait_p99.as_secs_f64() * 1e6,
    );
    l.set(
        "obs.trace_overhead_frac",
        quantile(&traced, 0.5) / untraced_p50 - 1.0,
    );
    report.spans = Some(t);
}
