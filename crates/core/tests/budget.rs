//! Budget semantics across every strategy: exhaustion is an error, never
//! a panic or a wrong answer, and unmetered runs are unaffected.
//!
//! The fuel/deadline budget (PR 6) generalizes what used to be a
//! Naive-only step counter: all four arena strategies charge work
//! against a [`BudgetMeter`], so a serving loop can bound any
//! evaluation.  (The streaming engine's per-event metering is covered in
//! `crates/stream/tests/budget_stream.rs`.)

use minctx_core::{Engine, EvalError, Exhausted, FilterMode, Strategy, Value};
use minctx_xml::parse;
use std::time::Duration;

/// `//b` followed by `i` copies of `/parent::a/child::b` — the Section-1
/// family; exponential for Naive, merely step-linear for the rest.
fn family(i: usize) -> String {
    let mut q = String::from("//b");
    for _ in 0..i {
        q.push_str("/parent::a/child::b");
    }
    q
}

/// A document big enough that every strategy must spend hundreds of
/// units on the family query.
fn doc_xml() -> String {
    let mut s = String::from("<a>");
    for _ in 0..200 {
        s.push_str("<b>1</b>");
    }
    s.push_str("</a>");
    s
}

#[test]
fn every_strategy_exhausts_a_tiny_fuel_budget() {
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        // Optimizer pinned off: the rewrite pipeline fuses the
        // parent/child round trips away, and a collapsed `//b` is cheap
        // enough for MINCONTEXT to finish inside even this tiny budget.
        let err = Engine::new(s)
            .with_optimizer(false)
            .with_budget(50)
            .evaluate_str(&doc, &family(10))
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExhausted {
                cause: Exhausted::Fuel { fuel: 50 }
            },
            "strategy {s}"
        );
    }
}

#[test]
fn every_strategy_honors_an_expired_deadline() {
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        let err = Engine::new(s)
            .with_timeout(Duration::ZERO)
            .evaluate_str(&doc, &family(10))
            .unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExhausted {
                cause: Exhausted::Deadline
            },
            "strategy {s}"
        );
    }
}

#[test]
fn sufficient_fuel_changes_nothing() {
    // With enough fuel the metered answer is bit-identical to the
    // unmetered one, for every strategy and an assortment of queries.
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        for q in [
            "count(//b)",
            "/a/b[position() = 2]",
            "boolean(//b)",
            "sum(//b) + count(/a/*)",
        ] {
            let unmetered = Engine::new(s).evaluate_str(&doc, q).unwrap();
            let metered = Engine::new(s)
                .with_budget(100_000_000)
                .with_timeout(Duration::from_secs(600))
                .evaluate_str(&doc, q)
                .unwrap();
            assert_eq!(unmetered, metered, "strategy {s} query {q}");
        }
    }
}

#[test]
fn optmincontext_backward_pass_is_metered() {
    // The backward-propagation path does O(|D|) preimage sweeps; a fuel
    // budget smaller than the document must trip inside it rather than
    // letting the pass run for free.
    let doc = parse(&doc_xml()).unwrap();
    let e = Engine::new(Strategy::OptMinContext).with_budget(20);
    let err = e.evaluate_str(&doc, "/a/b[. = 'x']").unwrap_err();
    assert!(
        matches!(err, EvalError::BudgetExhausted { .. }),
        "got {err:?}"
    );
}

#[test]
fn exhaustion_is_not_sticky_across_evaluations() {
    // Each evaluation gets a fresh meter: after one exhausted run the
    // next (cheap) query on the same engine succeeds.
    let doc = parse(&doc_xml()).unwrap();
    for s in Strategy::ALL {
        let e = Engine::new(s).with_budget(2_000);
        let _ = e.evaluate_str(&doc, &family(10));
        assert_eq!(
            e.evaluate_str(&doc, "count(/a)").unwrap(),
            Value::Number(1.0),
            "strategy {s}"
        );
    }
}

#[test]
fn optmincontext_set_filter_is_metered() {
    // 200 elements, every tenth with an id: `//*[@id]` filters its
    // candidate set with a backward pass.  A budget that covers the
    // candidate kernel exactly must trip inside that set filter.
    let mut xml = String::from("<a>");
    for i in 0..200 {
        if i % 10 == 0 {
            xml.push_str(&format!("<b id=\"b{i}\"/>"));
        } else {
            xml.push_str("<b/>");
        }
    }
    xml.push_str("</a>");
    let doc = parse(&xml).unwrap();
    // Optimizer pinned on so `//*` is the single fused kernel step.
    let e = Engine::new(Strategy::OptMinContext).with_optimizer(true);
    let profile = e.explain(&doc, "//*[@id]").unwrap();
    assert_eq!(profile.steps[0].filter, Some(FilterMode::Set));
    let kernel = e.explain(&doc, "//*").unwrap().fuel_spent;
    assert!(profile.fuel_spent > kernel);
    let capped = Engine::new(Strategy::OptMinContext)
        .with_optimizer(true)
        .with_budget(kernel);
    assert!(capped.evaluate_str(&doc, "//*").is_ok());
    let err = capped.evaluate_str(&doc, "//*[@id]").unwrap_err();
    assert_eq!(
        err,
        EvalError::BudgetExhausted {
            cause: Exhausted::Fuel { fuel: kernel }
        }
    );
}
