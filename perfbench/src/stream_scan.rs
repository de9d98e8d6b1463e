//! `stream-scan`: streaming over a large input.  Each op runs
//! `StreamingEngine::evaluate_reader` over an `io::Read` of a serialized
//! 10⁶-element text, rotating over three streamable query classes.

use crate::classes::{self, assert_nonempty, oracle, CLASSES};
use crate::trace::Tracer;
use crate::{
    derive_seed, heap_windows, mb, quantile, Args, Measured, Report, Scratch, ALLOC, SETUP_REPS,
};
use minctx_bench::{values_agree, xmark_doc, XmarkConfig};
use minctx_core::{Engine, Strategy, Value};
use minctx_stream::{StreamOutcome, StreamValue, StreamingEngine};
use minctx_syntax::parse_xpath;
use minctx_xml::serialize::to_xml_string;
use minctx_xml::token::ParseOptions;
use minctx_xml::Tokenizer;
use std::time::{Duration, Instant};

const ELEMENTS: usize = 1_000_000;
const STREAM_CLASSES: [usize; 3] = [
    classes::DESC_NAME,
    classes::CHILD_CHAIN,
    classes::PRED_EXISTS,
];

/// One streaming op; returns the answer and whether it streamed.
fn stream_op(t: &mut Tracer, engine: &Engine, text: &[u8], class: usize, op: u64) -> (Value, bool) {
    let c = CLASSES[class].name;
    t.span(&format!("stream.op[{c}]"), op, |t| {
        let query = t.span(&format!("syntax.parse_xpath[{c}]"), op, |_| {
            parse_xpath(CLASSES[class].query).expect("class query parses")
        });
        let out = t.span("stream.evaluate_reader", op, |_| {
            engine
                .evaluate_reader(&query, text)
                .expect("stream evaluates")
        });
        match out {
            StreamOutcome::Streamed(StreamValue::Number(n)) => (Value::Number(n), true),
            StreamOutcome::Streamed(other) => panic!("{c} streamed a non-number: {other:?}"),
            StreamOutcome::Arena { value, .. } => (value, false),
        }
    })
}

struct Loop {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    failed: u64,
    streamed: u64,
}

fn load(
    t: &mut Tracer,
    engine: &Engine,
    text: &[u8],
    expected: &[Value],
    duration: Duration,
) -> Loop {
    let start = Instant::now();
    let mut l = Loop {
        latencies_ms: Vec::new(),
        wall_s: 0.0,
        failed: 0,
        streamed: 0,
    };
    let mut op = 0;
    while start.elapsed() < duration {
        let k = op % STREAM_CLASSES.len();
        let t0 = Instant::now();
        let (v, streamed) = stream_op(t, engine, text, STREAM_CLASSES[k], op as u64);
        l.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        l.failed += u64::from(!values_agree(&v, &expected[k]));
        l.streamed += u64::from(streamed);
        op += 1;
    }
    l.wall_s = start.elapsed().as_secs_f64();
    l
}

pub fn run(args: &Args, _scratch: &Scratch, report: &mut Report) {
    let doc = xmark_doc(&XmarkConfig {
        seed: derive_seed(args.seed, 20),
        ..XmarkConfig::sized(ELEMENTS)
    });
    let expected: Vec<Value> = STREAM_CLASSES
        .iter()
        .map(|&k| {
            let v = oracle(&doc, CLASSES[k].query);
            assert_nonempty(CLASSES[k].name, &v);
            v
        })
        .collect();
    let text = to_xml_string(&doc).into_bytes();
    drop(doc);
    report.inputs.push(("text".into(), text.len()));
    let engine = Engine::new(Strategy::Streaming);

    // Set-up: the first answer, from one warm pass.
    let mut off = Tracer::disabled();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (v, _) = stream_op(&mut off, &engine, &text, STREAM_CLASSES[0], 0);
        assert!(values_agree(&v, &expected[0]), "warm-up answer is wrong");
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
        heap_windows(|| load(&mut off, &engine, &text, &expected, untraced));
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
        mb(text.len()) * ops / measured.wall_s,
        "MB/s",
    ));
    report.extra.push(("op_samples", ops, "count"));

    if !args.trace {
        return;
    }
    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let traced = load(&mut t, &engine, &text, &expected, args.seconds - untraced);
    report.attempted += traced.latencies_ms.len() as u64;
    report.failed += traced.failed;

    // Bare reader-mode tokenize: the part of a streamed op that is lexing.
    for rep in 0..3 {
        t.span("xml.tokenize", rep, |_| {
            let mut tok = Tokenizer::from_reader(&text[..], ParseOptions::default());
            let mut events = 0u64;
            while tok.next_event().expect("text tokenizes").is_some() {
                events += 1;
            }
            std::hint::black_box(events)
        });
    }
    for (k, &class) in STREAM_CLASSES.iter().enumerate() {
        let tokenizers_before = minctx_xml::tokenizers_created();
        let documents_before = minctx_xml::builder::documents_built();
        let allocated = ALLOC.total();
        let (v, _) = stream_op(&mut Tracer::disabled(), &engine, &text, class, 0);
        assert!(values_agree(&v, &expected[k]), "exact-count pass is wrong");
        let exact = classes::Exact {
            tokenizers_created: minctx_xml::tokenizers_created() - tokenizers_before,
            documents_built: minctx_xml::builder::documents_built() - documents_before,
            alloc_bytes: (ALLOC.total() - allocated) as u64,
            ..Default::default()
        };
        report.exact.push((CLASSES[class].name.to_string(), exact));
    }

    let l = &mut report.layers;
    let tokenize = t.median_ms("xml.tokenize");
    l.set("xml.tokenize_ms", tokenize);
    l.set(
        "stream.scan_ms",
        t.median_ms("stream.evaluate_reader") - tokenize,
    );
    let attempted = measured.latencies_ms.len() + traced.latencies_ms.len();
    l.set(
        "stream.streamed_frac",
        (measured.streamed + traced.streamed) as f64 / attempted as f64,
    );
    let parse_ms: f64 = STREAM_CLASSES
        .iter()
        .map(|&k| t.median_ms(&format!("syntax.parse_xpath[{}]", CLASSES[k].name)))
        .sum();
    l.set(
        "syntax.parse_us",
        parse_ms / STREAM_CLASSES.len() as f64 * 1e3,
    );
    l.set("xml.tokenizers_created", tokenizers);
    l.set("xml.documents_built", documents);
    l.set(
        "obs.trace_overhead_frac",
        quantile(&traced.latencies_ms, 0.5) / quantile(&measured.latencies_ms, 0.5) - 1.0,
    );
    report.spans = Some(t);
}
