//! `ingest`: the text-to-snapshot path.  Each op parses one of several
//! seed-varied 10⁵-element texts, writes its snapshot, opens the snapshot
//! and counts its `item` elements.

use crate::classes::{self, assert_nonempty, oracle, CLASSES, DESC_NAME};
use crate::trace::Tracer;
use crate::{
    derive_seed, heap_windows, mb, quantile, Args, Measured, Report, Scratch, ALLOC, SETUP_REPS,
};
use minctx_bench::{values_agree, xmark_doc, XmarkConfig};
use minctx_core::{open_snapshot, write_snapshot, Engine, Strategy, Value};
use minctx_xml::serialize::to_xml_string;
use minctx_xml::Tokenizer;
use std::path::Path;
use std::time::{Duration, Instant};

const ELEMENTS: usize = 100_000;
const TEXTS: usize = 4;

/// One ingest op; returns the answer and the snapshot's size.
fn ingest_op(t: &mut Tracer, engine: &Engine, text: &str, path: &Path, op: u64) -> (Value, u64) {
    let query = CLASSES[DESC_NAME].query;
    t.span("ingest.op", op, |t| {
        let doc = t.span("xml.parse", op, |_| {
            minctx_xml::parse(text).expect("text parses")
        });
        let info = t.span("index.write_snapshot", op, |_| {
            write_snapshot(&doc, path).expect("write snapshot")
        });
        drop(doc);
        let snap = t.span("index.open_snapshot", op, |_| {
            open_snapshot(path).expect("open snapshot")
        });
        let v = t.span("core.evaluate_str", op, |_| {
            engine.evaluate_str(&snap, query).expect("query evaluates")
        });
        (v, info.file_len)
    })
}

struct Loop {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    input_bytes: usize,
    failed: u64,
}

fn load(
    t: &mut Tracer,
    engine: &Engine,
    texts: &[String],
    expected: &[Value],
    path: &Path,
    duration: Duration,
) -> Loop {
    let start = Instant::now();
    let mut l = Loop {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        input_bytes: 0,
        failed: 0,
    };
    let mut op = 0;
    while start.elapsed() < duration {
        let i = op % texts.len();
        let t0 = Instant::now();
        let (v, _) = ingest_op(t, engine, &texts[i], path, op as u64);
        l.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        l.input_bytes += texts[i].len();
        l.failed += u64::from(!values_agree(&v, &expected[i]));
        op += 1;
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l
}

pub fn run(args: &Args, scratch: &Scratch, report: &mut Report) {
    let class = &CLASSES[DESC_NAME];
    let mut texts = Vec::new();
    let mut expected = Vec::new();
    for i in 0..TEXTS {
        let doc = xmark_doc(&XmarkConfig {
            seed: derive_seed(args.seed, 10 + i as u64),
            ..XmarkConfig::sized(ELEMENTS)
        });
        let want = oracle(&doc, class.query);
        assert_nonempty(class.name, &want);
        expected.push(want);
        texts.push(to_xml_string(&doc));
        report.inputs.push((format!("text{i}"), texts[i].len()));
    }
    let engine = Engine::new(Strategy::OptMinContext);
    let path = scratch.path("ingest.snap");

    // Set-up: one warm op per text.
    let mut off = Tracer::disabled();
    let mut setup_s = Vec::new();
    let mut snapshot_ratio = 0.0;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        snapshot_ratio = 0.0;
        for (i, text) in texts.iter().enumerate() {
            let (v, len) = ingest_op(&mut off, &engine, text, &path, 0);
            assert!(values_agree(&v, &expected[i]), "warm-up answer is wrong");
            snapshot_ratio += len as f64 / text.len() as f64 / TEXTS as f64;
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }

    let untraced = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    let tokenizers = minctx_xml::tokenizers_created();
    let documents = minctx_xml::builder::documents_built();
    let (measured, peak_heap_bytes) =
        heap_windows(|| load(&mut off, &engine, &texts, &expected, &path, untraced));
    let ops = measured.latencies_ms.len() as f64;
    let tokenizers = (minctx_xml::tokenizers_created() - tokenizers) as f64 / ops;
    let documents = (minctx_xml::builder::documents_built() - documents) as f64 / ops;

    report.attempted = measured.latencies_ms.len() as u64;
    report.failed = measured.failed;
    report.set_end_to_end(&Measured {
        setup_s,
        latencies_ms: measured.latencies_ms.clone(),
        wall_s: measured.wall_s,
        peak_heap_bytes,
    });
    report.extra.push((
        "input_mb_per_s",
        mb(measured.input_bytes) / measured.wall_s,
        "MB/s",
    ));
    report
        .extra
        .push(("snapshot_bytes_per_input_byte", snapshot_ratio, "ratio"));
    report.extra.push(("op_samples", ops, "count"));

    if !args.trace {
        return;
    }
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let traced = load(
        &mut t,
        &engine,
        &texts,
        &expected,
        &path,
        args.seconds - untraced,
    );
    report.attempted += traced.latencies_ms.len() as u64;
    report.failed += traced.failed;

    // Bare tokenize of each text: the part of `parse` that is lexing.
    for (i, text) in texts.iter().enumerate() {
        for rep in 0..2 {
            t.span("xml.tokenize", (i * 2 + rep) as u64, |_| {
                let mut tok = Tokenizer::new(text);
                let mut events = 0u64;
                while tok.next_event().expect("text tokenizes").is_some() {
                    events += 1;
                }
                std::hint::black_box(events)
            });
        }
    }
    // Exact counts of one whole op, then the class replay on its snapshot.
    let tokenizers_before = minctx_xml::tokenizers_created();
    let documents_before = minctx_xml::builder::documents_built();
    let allocated = ALLOC.total();
    let (_, snapshot_bytes) = ingest_op(&mut Tracer::disabled(), &engine, &texts[0], &path, 0);
    let mut one_op = classes::Exact {
        tokenizers_created: minctx_xml::tokenizers_created() - tokenizers_before,
        documents_built: minctx_xml::builder::documents_built() - documents_before,
        alloc_bytes: (ALLOC.total() - allocated) as u64,
        snapshot_bytes,
        ..Default::default()
    };
    let snap = open_snapshot(&path).expect("open snapshot");
    let l = &mut report.layers;
    let replayed = classes::replay(&mut t, &snap, None, class, class.query, &expected[0], 5, l);
    one_op.fuel = replayed.fuel;
    one_op.memo_hits = replayed.memo_hits;
    one_op.memo_misses = replayed.memo_misses;
    report.exact.push((class.name.to_string(), one_op));
    classes::front_end_layers(&t, &[class], l);

    let tokenize = t.median_ms("xml.tokenize");
    l.set("xml.tokenize_ms", tokenize);
    l.set("xml.build_ms", t.median_ms("xml.parse") - tokenize);
    l.set("xml.tokenizers_created", tokenizers);
    l.set("xml.documents_built", documents);
    l.set("index.write_ms", t.median_ms("index.write_snapshot"));
    l.set("index.open_ms", t.median_ms("index.open_snapshot"));
    l.set("index.snapshot_bytes_per_input_byte", snapshot_ratio);
    l.set(
        "obs.trace_overhead_frac",
        quantile(&traced.latencies_ms, 0.5) / quantile(&measured.latencies_ms, 0.5) - 1.0,
    );
    report.spans = Some(t);
}
