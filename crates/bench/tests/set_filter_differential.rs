//! Set-at-a-time predicate filters (OPTMINCONTEXT) against the naive
//! semantics oracle, on seeded random documents.
//!
//! The shared corpus is light on the predicate shapes the set filter
//! rewrites into set operations — negation, conjunction, disjunction,
//! wildcard attributes, positional predicates around an existence test,
//! reverse and sibling axes, the id "axis", element and attribute value
//! comparisons, and names the document lacks — so this suite generates
//! small documents that exercise each of them.  Every shape must agree
//! with the naive evaluator at threads 1 and 2 (the latter with the
//! parallel gates forced down so the chunked kernels run), on the arena
//! document and on its snapshot.  A cost property rides along: the set
//! filter must never spend more fuel than MINCONTEXT spends on the query
//! as written (one documented exemption, [`COST_EXEMPT`]).

use minctx_bench::{values_agree, xorshift};
use minctx_core::{open_snapshot, write_snapshot, Engine, FilterMode, Strategy};
use minctx_xml::{parse, Document};

/// The shapes under test.  `nothere` is a name no generated document
/// uses (its node test resolves to `NeverMatches`).
const SHAPES: &[&str] = &[
    "//*[not(@id)]",
    "//a[@a and b]",
    "//a[@a or b]",
    "//*[@*]",
    "//a[b][1]",
    "//a[1][b]",
    "//*[ancestor::x]",
    "//*[preceding-sibling::y]",
    "//*[id(@ref)]",
    "//*[. = 'x']",
    "//*[nothere]",
    "//nothere[b]",
    "//a[@nothere = 'x']",
    "//*[not(nothere)]",
    "//@id/..",
    "//a[@v > 2]",
    "//b[. > 2]",
    "//*[b = 'x']",
    "//@v[. > 2]",
    "//a[not(b) or @a]",
    "//a[b/c]",
    "//a[../x]",
    "//*[text() = 'x']",
    "//a[.//y]",
    "//b[following::x]",
    "(//a)[b]",
    "//a/b[@a][. = 'x']",
    "//*[@v != 3 and not(c)]",
];

const LABELS: &[&str] = &["a", "b", "c", "x", "y"];
const TEXTS: &[&str] = &["x", "1", "2", "3", " 4", "xy"];

/// A random document: depth ≤ 5, fan-out ≤ 4, labels from [`LABELS`],
/// unique `id`s on some elements, `ref` lists pointing at them, `a` and
/// numeric `v` attributes, and text children.
fn random_doc(seed: u64) -> Document {
    let mut rng = seed | 1;
    let mut xml = String::new();
    let mut next_id = 0u32;
    fn element(rng: &mut u64, depth: usize, next_id: &mut u32, xml: &mut String) {
        let label = LABELS[(xorshift(rng) % LABELS.len() as u64) as usize];
        xml.push('<');
        xml.push_str(label);
        if xorshift(rng) % 3 == 0 {
            xml.push_str(&format!(" id=\"i{next_id}\""));
            *next_id += 1;
        }
        if *next_id > 0 && xorshift(rng) % 4 == 0 {
            let a = xorshift(rng) % u64::from(*next_id);
            let b = xorshift(rng) % u64::from(*next_id + 2);
            xml.push_str(&format!(" ref=\"i{a} i{b}\""));
        }
        if xorshift(rng) % 3 == 0 {
            xml.push_str(" a=\"x\"");
        }
        if xorshift(rng) % 2 == 0 {
            xml.push_str(&format!(" v=\"{}\"", xorshift(rng) % 6));
        }
        xml.push('>');
        let children = if depth >= 5 { 0 } else { xorshift(rng) % 5 };
        for _ in 0..children {
            if xorshift(rng) % 3 == 0 {
                xml.push_str(TEXTS[(xorshift(rng) % TEXTS.len() as u64) as usize]);
                // Keep adjacent text runs apart so each text node is one
                // token run (id tokens never straddle two text nodes).
                xml.push_str("<c/>");
            } else {
                element(rng, depth + 1, next_id, xml);
            }
        }
        xml.push_str("</");
        xml.push_str(label);
        xml.push('>');
    }
    element(&mut rng, 0, &mut next_id, &mut xml);
    parse(&xml).expect("generated document parses")
}

fn snapshot_of(doc: &Document, seed: u64) -> Document {
    let path = std::env::temp_dir().join(format!(
        "minctx-set-filter-{}-{seed}.mctx",
        std::process::id()
    ));
    write_snapshot(doc, &path).expect("write_snapshot");
    let mapped = open_snapshot(&path).expect("open_snapshot");
    std::fs::remove_file(&path).ok();
    mapped
}

fn engines() -> Vec<(&'static str, Engine)> {
    vec![
        ("opt/t1", Engine::new(Strategy::OptMinContext)),
        (
            "opt/t2",
            Engine::new(Strategy::OptMinContext)
                .with_threads(2)
                .with_par_threshold(4)
                .with_par_chunk_min(2),
        ),
        (
            "opt-raw/t1",
            Engine::new(Strategy::OptMinContext).with_optimizer(false),
        ),
    ]
}

#[test]
#[cfg_attr(miri, ignore = "seeded sweep is minutes-long under the interpreter")]
fn set_filters_agree_with_the_naive_oracle() {
    let oracle = Engine::new(Strategy::Naive).with_optimizer(false);
    let engines = engines();
    for seed in 1..=24u64 {
        let arena = random_doc(seed);
        let mapped = snapshot_of(&arena, seed);
        for shape in SHAPES {
            let want = oracle
                .evaluate_str(&arena, shape)
                .unwrap_or_else(|e| panic!("seed {seed}: naive failed on {shape}: {e}"));
            for (backing, doc) in [("arena", &arena), ("snapshot", &mapped)] {
                for (tag, engine) in &engines {
                    let got = engine
                        .evaluate_str(doc, shape)
                        .unwrap_or_else(|e| panic!("seed {seed} {backing} {tag}: {shape}: {e}"));
                    assert!(
                        values_agree(&got, &want),
                        "seed {seed} {backing} {tag}: {shape}: got {got:?}, naive {want:?}"
                    );
                }
            }
        }
    }
}

/// Shapes exempt from the cost property: a `following` preimage sweeps
/// the whole document however few candidates there are, so on a
/// document with a handful of candidates walking forward from each is
/// cheaper.  The cost rule probes only one-hop paths, whose
/// per-candidate walk it can bound.
const COST_EXEMPT: &[&str] = &["//b[following::x]"];

#[test]
fn set_filters_never_cost_more_fuel_than_mincontext() {
    let opt = Engine::new(Strategy::OptMinContext).with_optimizer(true);
    let reference = Engine::new(Strategy::MinContext).with_optimizer(false);
    for seed in 1..=24u64 {
        let doc = random_doc(seed);
        for shape in SHAPES.iter().filter(|s| !COST_EXEMPT.contains(s)) {
            let fast = opt.explain(&doc, shape).unwrap().fuel_spent;
            let slow = reference.explain(&doc, shape).unwrap().fuel_spent;
            assert!(
                fast <= slow,
                "seed {seed}: {shape}: OptMinContext fuel {fast} > MinContext (optimizer off) {slow}"
            );
        }
    }
}

#[test]
fn every_filter_mode_is_exercised() {
    // Guards the suite against going vacuous: across the seeds, the
    // shapes reach the set path, the probe path and the per-origin loop.
    let engine = Engine::new(Strategy::OptMinContext);
    let mut seen = Vec::new();
    for seed in 1..=24u64 {
        let doc = random_doc(seed);
        for shape in SHAPES {
            for step in engine.explain(&doc, shape).unwrap().steps {
                if let Some(m) = step.filter {
                    if !seen.contains(&m) {
                        seen.push(m);
                    }
                }
            }
        }
    }
    for m in [FilterMode::Set, FilterMode::Probe, FilterMode::Origin] {
        assert!(seen.contains(&m), "no shape took filter={m}");
    }
}
