//! The ten query classes, their independent expected answers, and the
//! single-threaded replay that times each layer a class passes through.

use crate::trace::Tracer;
use crate::Layers;
use crate::ALLOC;
use minctx_bench::values_agree;
use minctx_core::{
    rewrite_traced, snapshot_stamp, CompiledQuery, Context, Engine, Strategy, Value,
};
use minctx_syntax::parse_xpath;
use minctx_xml::axes::{axis_image, Axis, NodeTest};
use minctx_xml::{Document, NodeSet};
use std::path::Path;

/// One query class: its XPath text and the predicate-free axis steps
/// that find its candidates (the "kernel" a predicated class filters).
pub struct Class {
    pub name: &'static str,
    /// The query; `pred_value` substitutes its threshold for `{N}`.
    pub query: &'static str,
    pub kernel: &'static [(Axis, &'static str)],
    pub predicated: bool,
}

impl Class {
    /// The query text, with `n` as the threshold of `pred_value`.
    pub fn text(&self, n: u32) -> String {
        self.query.replace("{N}", &n.to_string())
    }
}

pub const DESC_NAME: usize = 0;
pub const CHILD_CHAIN: usize = 1;
pub const PRED_EXISTS: usize = 3;
pub const PRED_VALUE: usize = 9;

pub const CLASSES: [Class; 10] = [
    Class {
        name: "desc_name",
        query: "count(//item)",
        kernel: &[(Axis::Descendant, "item")],
        predicated: false,
    },
    Class {
        name: "child_chain",
        query: "count(//parlist/listitem)",
        kernel: &[(Axis::Descendant, "parlist"), (Axis::Child, "listitem")],
        predicated: false,
    },
    Class {
        name: "desc_chain",
        query: "count(//category/descendant::keyword)",
        kernel: &[
            (Axis::Descendant, "category"),
            (Axis::Descendant, "keyword"),
        ],
        predicated: false,
    },
    Class {
        name: "pred_exists",
        query: "count(//item[@id])",
        kernel: &[(Axis::Descendant, "item")],
        predicated: true,
    },
    Class {
        name: "pred_parent",
        query: "count(//listitem[parent::parlist])",
        kernel: &[(Axis::Descendant, "listitem")],
        predicated: true,
    },
    Class {
        name: "pred_wild",
        query: "count(//*[@id])",
        kernel: &[(Axis::Descendant, "*")],
        predicated: true,
    },
    Class {
        name: "pred_multi",
        query: "count(//open_auction[bid][seller])",
        kernel: &[(Axis::Descendant, "open_auction")],
        predicated: true,
    },
    Class {
        name: "pred_position",
        query: "count(//person[position() = last()])",
        kernel: &[(Axis::Descendant, "person")],
        predicated: true,
    },
    Class {
        name: "rev_parent",
        query: "count(//@id/..)",
        kernel: &[
            (Axis::DescendantOrSelf, "node()"),
            (Axis::Attribute, "id"),
            (Axis::Parent, "node()"),
        ],
        predicated: false,
    },
    Class {
        name: "pred_value",
        query: "count(//item[@v > {N}])",
        kernel: &[(Axis::Descendant, "item")],
        predicated: true,
    },
];

/// The expected answer by an evaluation path independent of the served
/// one: MINCONTEXT with the rewrite pipeline off.
pub fn oracle(doc: &Document, text: &str) -> Value {
    Engine::new(Strategy::MinContext)
        .with_optimizer(false)
        .evaluate_str(doc, text)
        .unwrap_or_else(|e| panic!("oracle failed on {text}: {e}"))
}

/// Expected answers of `pred_value`, counted by the benchmark itself from
/// the `v` attributes of the `item` elements.
pub struct ItemValues(Vec<f64>);

impl ItemValues {
    pub fn new(doc: &Document) -> ItemValues {
        let mut v: Vec<f64> = match doc.find_name("item") {
            Some(item) => doc
                .element_postings(item)
                .iter()
                .filter_map(|&n| doc.attribute_value(n, "v"))
                .map(|s| s.trim().parse::<f64>().unwrap_or(f64::NAN))
                .filter(|x| !x.is_nan())
                .collect(),
            None => Vec::new(),
        };
        v.sort_by(f64::total_cmp);
        ItemValues(v)
    }

    /// `count(//item[@v > n])`.
    pub fn above(&self, n: u32) -> Value {
        let n = f64::from(n);
        Value::Number((self.0.len() - self.0.partition_point(|&x| x <= n)) as f64)
    }
}

/// Panics unless `v` is a positive count: a class whose answer is empty
/// measures nothing.
pub fn assert_nonempty(class: &str, v: &Value) {
    match v {
        Value::Number(n) if *n > 0.0 => {}
        other => panic!("class {class} has an empty answer ({other:?}) on this document"),
    }
}

fn node_test(s: &str) -> NodeTest {
    match s {
        "*" => NodeTest::Wildcard,
        "node()" => NodeTest::AnyNode,
        name => NodeTest::name(name),
    }
}

/// The class's kernel: its predicate-free steps by `axis_image` from the
/// root.  Returns the candidate count.
pub fn kernel(doc: &Document, class: &Class) -> usize {
    let mut set = NodeSet::singleton(doc.root());
    for &(axis, test) in class.kernel {
        set = axis_image(doc, axis, &set, &node_test(test));
    }
    set.len()
}

/// Exact counts of one class, as the exact-count block prints them.
#[derive(Default, Clone)]
pub struct Exact {
    pub fuel: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub tokenizers_created: u64,
    pub documents_built: u64,
    pub alloc_bytes: u64,
    pub snapshot_bytes: u64,
}

impl Exact {
    pub fn json(&self) -> String {
        format!(
            r#"{{"fuel":{},"memo_hits":{},"memo_misses":{},"tokenizers_created":{},"documents_built":{},"alloc_bytes":{},"snapshot_bytes":{}}}"#,
            self.fuel,
            self.memo_hits,
            self.memo_misses,
            self.tokenizers_created,
            self.documents_built,
            self.alloc_bytes,
            self.snapshot_bytes
        )
    }
}

/// Replays one class single-threaded through the calls a serve worker
/// makes (`snapshot_stamp` when `snapshot` is given, `parse_xpath`,
/// `Engine::compile_uncached`, `Engine::evaluate_compiled_metered`), then
/// times the compile halves, MINCONTEXT evaluation and the kernel on
/// their own, `reps` times each, and records the per-class layer metrics.
#[allow(clippy::too_many_arguments)]
pub fn replay(
    t: &mut Tracer,
    doc: &Document,
    snapshot: Option<&Path>,
    class: &Class,
    text: &str,
    want: &Value,
    reps: usize,
    layers: &mut Layers,
) -> Exact {
    let opt = Engine::new(Strategy::OptMinContext);
    let minctx = Engine::new(Strategy::MinContext);
    let c = class.name;
    let mut exact = Exact::default();
    for rep in 0..reps {
        let op = rep as u64;
        let tokenizers = minctx_xml::tokenizers_created();
        let documents = minctx_xml::builder::documents_built();
        let allocated = ALLOC.total();
        let (value, fuel) = t.span(&format!("replay[{c}]"), op, |t| {
            if let Some(path) = snapshot {
                t.span(&format!("index.snapshot_stamp[{c}]"), op, |_| {
                    snapshot_stamp(path).expect("snapshot stamp")
                });
            }
            let query = t.span(&format!("syntax.parse_xpath[{c}]"), op, |_| {
                parse_xpath(text).expect("class query parses")
            });
            let compiled = t.span(&format!("core.compile_uncached[{c}]"), op, |_| {
                opt.compile_uncached(doc, &query)
            });
            t.span(&format!("core.evaluate_compiled_metered[{c}]"), op, |_| {
                let mut meter = opt.budget_config().meter();
                let v = opt
                    .evaluate_compiled_metered(doc, &compiled, Context::document(doc), &mut meter)
                    .expect("class evaluates");
                (v, meter.spent())
            })
        });
        assert!(
            values_agree(&value, want),
            "replay of {c} disagrees with the expected answer"
        );
        if rep == 0 {
            exact.fuel = fuel;
            exact.tokenizers_created = minctx_xml::tokenizers_created() - tokenizers;
            exact.documents_built = minctx_xml::builder::documents_built() - documents;
            exact.alloc_bytes = (ALLOC.total() - allocated) as u64;
        }
        let query = parse_xpath(text).expect("class query parses");
        let rewritten = t.span(&format!("core.rewrite_traced[{c}]"), op, |_| {
            rewrite_traced(&query).0
        });
        t.span(&format!("core.CompiledQuery::new[{c}]"), op, |_| {
            CompiledQuery::new(doc, &rewritten)
        });
        let compiled = minctx.compile_uncached(doc, &query);
        let v = t.span(
            &format!("core.evaluate_compiled_metered.minctx[{c}]"),
            op,
            |_| {
                minctx
                    .evaluate_compiled(doc, &compiled, Context::document(doc))
                    .expect("class evaluates under MinContext")
            },
        );
        assert!(values_agree(&v, want), "MinContext replay of {c} disagrees");
        t.span(&format!("xml.axis_image[{c}]"), op, |_| kernel(doc, class));
    }
    let profile = t.span(&format!("core.explain[{c}]"), 0, |_| {
        opt.explain(doc, text).expect("explain runs")
    });
    exact.memo_hits = profile.memo_hits;
    exact.memo_misses = profile.memo_misses;

    let eval = t.median_ms(&format!("core.evaluate_compiled_metered[{c}]"));
    let kernel_ms = t.median_ms(&format!("xml.axis_image[{c}]"));
    layers.set(&format!("xml.axis_kernel_ms.{c}"), kernel_ms);
    layers.set(&format!("core.eval_ms.{c}"), eval);
    layers.set(
        &format!("core.eval_ms_minctx.{c}"),
        t.median_ms(&format!("core.evaluate_compiled_metered.minctx[{c}]")),
    );
    if class.predicated {
        layers.set(&format!("core.predicate_ms.{c}"), eval - kernel_ms);
    }
    layers.set(&format!("core.fuel.{c}"), exact.fuel as f64);
    layers.set(&format!("core.memo_hits.{c}"), exact.memo_hits as f64);
    layers.set(&format!("core.memo_misses.{c}"), exact.memo_misses as f64);
    exact
}

/// `syntax.parse_us`, `core.rewrite_us` and `core.compile_us`: the mean
/// over the replayed classes of each class's median call time.
pub fn front_end_layers(t: &Tracer, classes: &[&Class], layers: &mut Layers) {
    for (metric, span) in [
        ("syntax.parse_us", "syntax.parse_xpath"),
        ("core.rewrite_us", "core.rewrite_traced"),
        ("core.compile_us", "core.CompiledQuery::new"),
    ] {
        let sum: f64 = classes
            .iter()
            .map(|c| t.median_ms(&format!("{span}[{}]", c.name)))
            .sum();
        layers.set(metric, sum / classes.len() as f64 * 1e3);
    }
}
