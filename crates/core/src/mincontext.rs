//! MINCONTEXT and OPTMINCONTEXT (Sections 3 and 4 of the paper).
//!
//! The algorithmic content of the paper, in two layers:
//!
//! **MINCONTEXT** (Section 3).  Location paths are evaluated *set at a
//! time* with deduplication (so step chains stay linear in `|D|` instead of
//! exploding like the naive context-at-a-time loop), and every expression
//! node `N` memoizes its value keyed on the *relevant context* `Relev(N)`
//! computed during lowering: a predicate such as `position() != last()`
//! (`Relev = {position, size}`) is evaluated once per distinct `(k, n)`
//! pair *across all context nodes*, a predicate path such as `child::b`
//! (`Relev = {node}`) once per distinct context node regardless of the
//! positional context, and an absolute path exactly once per document.
//! Since each node is evaluated at most once per distinct relevant context
//! and only contexts that actually arise are ever touched (the top-down
//! recursion is the paper's context-propagation), total work is polynomial
//! — `O(|D|·|Q|)` on Core XPath and the Extended Wadler fragment
//! (Theorems 7 and 10).  Predicated steps build per-origin candidate
//! lists in axis order and filter each through the memo; this evaluator
//! is the reference the optimized one is checked against.
//!
//! **OPTMINCONTEXT** (Section 4, plus the backward-propagation rule of the
//! VLDB'02 predecessor's Section 6).  A predicated step whose predicates
//! all have `Relev ∩ {position, size} = ∅` runs *set at a time*: one
//! candidate kernel `C = χ(cur)` for all origins, then each predicate
//! filters `C` as a set.  `and`, `or` and `not` become intersection,
//! union and difference; the leaf shapes
//!
//! ```text
//! boolean(π)        π RelOp c        c RelOp π
//! ```
//!
//! where `π` is a predicate-free relative path and `c` a constant scalar,
//! become `C ∩ χ₁⁻¹(t₁ ∩ … χₖ⁻¹(Tₖ))`: the *witness seed* `Tₖ` is read
//! from `π`'s last node test (label postings for a name test, a kind scan
//! otherwise), narrowed by the comparison, and propagated through one
//! [`axis_preimage`] per step (including the id-"axis" of Section 4).
//! When the seed is large against `C` and `π` only walks one-hop axes, a
//! fixed cost rule probes each candidate forward instead, stopping at the
//! first witness.  Probed values are memoized in a dense per-node column
//! rather than the hash memo.  Steps with positional predicates keep
//! MINCONTEXT's per-origin loop; there, shape predicates are answered by
//! membership in the same witness sets.
//!
//! [`axis_preimage`]: minctx_xml::axes::axis_preimage

use crate::budget::BudgetMeter;
use crate::compile::CompiledQuery;
use crate::engine::{Context, Evaluator, Strategy};
use crate::error::EvalError;
use crate::explain::{FilterMode, ProfileCollector, StepObservation};
use crate::funcs;
use crate::naive::arith;
use crate::value::{compare, NodeComparison, Value};
use minctx_syntax::{ExprId, Func, Node, PathStart, Relev, Step, ValueType};
use minctx_xml::axes::{
    axis_image_into, axis_image_into_par, axis_nodes_into_par, axis_preimage_into,
    axis_preimage_into_par, classify_image_route, classify_single_route, Axis, ResolvedTest,
};
use minctx_xml::par::chunk_bounds;
use minctx_xml::{Document, NodeId, NodeSet, ParConfig, Scratch, WorkerPool};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Parallel-evaluation settings threaded from the engine
/// ([`Engine::with_threads`](crate::Engine::with_threads)): the shared
/// work-splitting pool plus the size gating for the chunked kernels and
/// the per-context fan-out.
#[derive(Debug, Clone)]
pub struct ParSettings {
    /// The engine's worker pool (shared across engine clones; regions are
    /// serialized inside the pool).
    pub pool: Arc<WorkerPool>,
    /// When the chunked paths engage and how finely they split.
    pub config: ParConfig,
}

fn fanout_counter() -> &'static minctx_obs::Counter {
    static C: OnceLock<minctx_obs::Counter> = OnceLock::new();
    C.get_or_init(|| minctx_obs::global().counter("par/fanout_regions"))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The MINCONTEXT evaluator; with `optimized` set, OPTMINCONTEXT.
#[derive(Debug, Clone, Default)]
pub struct MinContext {
    /// Enables the Section-4 set-at-a-time predicate filters and
    /// backward propagation.
    pub optimized: bool,
    /// With parallel settings attached, large axis sweeps run on the
    /// chunked kernels and per-origin predicated steps fan the context
    /// set out across the pool — results stay bit-identical to sequential
    /// evaluation (chunks merge by pre-order ordinal).  `None` (the
    /// default) is the exact sequential code path.
    pub parallel: Option<ParSettings>,
}

impl Evaluator for MinContext {
    fn strategy(&self) -> Strategy {
        if self.optimized {
            Strategy::OptMinContext
        } else {
            Strategy::MinContext
        }
    }

    fn evaluate(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
    ) -> Result<Value, EvalError> {
        let mut run = Run::new(
            doc,
            query,
            self.optimized,
            scratch,
            meter,
            self.parallel.clone(),
        );
        run.eval_root(ctx)
    }
}

impl MinContext {
    /// [`Evaluator::evaluate`] with a [`ProfileCollector`] attached: the
    /// instrumented entry point behind [`Engine::explain`]. Identical
    /// semantics and fuel accounting; the profiled run additionally reads
    /// the clock once per path step.
    ///
    /// [`Engine::explain`]: crate::Engine::explain
    pub(crate) fn evaluate_profiled(
        &self,
        doc: &Document,
        query: &CompiledQuery,
        ctx: Context,
        scratch: &mut Scratch,
        meter: &mut BudgetMeter,
        prof: &mut ProfileCollector,
    ) -> Result<Value, EvalError> {
        let mut run = Run::new(
            doc,
            query,
            self.optimized,
            scratch,
            meter,
            self.parallel.clone(),
        );
        run.prof = Some(prof);
        run.eval_root(ctx)
    }
}

struct Run<'d, 'q, 's, 'm, 'p> {
    doc: &'d Document,
    query: &'q CompiledQuery,
    opt: bool,
    /// Per expression node: relevant-context key → value.
    memo: Vec<HashMap<u128, Value>>,
    /// OPTMINCONTEXT: per predicate node, the set of context nodes for
    /// which the predicate holds (computed by one backward pass).
    backward: Vec<Option<NodeSet>>,
    /// OPTMINCONTEXT probe path: per predicate node, its memoized
    /// per-node truth values (empty until the first probe).
    truth: Vec<Option<TruthColumn>>,
    /// Per-step candidate buffers of the forward probe walk.
    probe_bufs: Vec<Vec<NodeId>>,
    /// Element string values built for comparisons.
    strbuf: String,
    /// Reusable axis-kernel working memory (engine-owned).
    scratch: &'s mut Scratch,
    /// Fuel/deadline accounting: charged per memo-miss compute, per axis
    /// sweep (proportional to the context set and the kernel's output),
    /// per candidate filtered, per backward pass (its seed plus each
    /// preimage's input and output, and `|D|` for a sweeping kernel), and
    /// per probed node (plus each forward walk's output).
    meter: &'m mut BudgetMeter,
    /// EXPLAIN instrumentation; `None` (the common case) costs one branch
    /// per hook and never reads the clock.
    prof: Option<&'p mut ProfileCollector>,
    /// Parallel settings; `None` keeps every kernel and loop on the exact
    /// sequential path.  Fan-out workers always run with `None` — nested
    /// regions would serialize on the pool's region lock for no benefit.
    par: Option<ParSettings>,
}

/// A predicate's memoized per-node truth values: one byte per document
/// node (0 unknown, 1 false, 2 true), taken from the scratch pool.  `set`
/// lists the written entries so the column goes back all-zero.
struct TruthColumn {
    vals: Vec<u8>,
    set: Vec<NodeId>,
}

impl Drop for Run<'_, '_, '_, '_, '_> {
    fn drop(&mut self) {
        for col in self.truth.drain(..).flatten() {
            let TruthColumn { mut vals, set } = col;
            for n in set {
                vals[n.index()] = 0;
            }
            self.scratch.put_column(vals);
        }
    }
}

/// What one fan-out chunk hands back to the parent run.
struct ChunkOutcome {
    /// Kept candidates, concatenated in origin order.
    acc: Vec<NodeId>,
    /// The worker's memo tables, merged back after the region.
    memo: Vec<HashMap<u128, Value>>,
    /// The worker's backward sets (OPTMINCONTEXT), merged back likewise.
    backward: Vec<Option<NodeSet>>,
    /// The first evaluation error the worker hit, if any.
    err: Option<EvalError>,
}

/// A predicate OPTMINCONTEXT answers from a witness set: `boolean(π)`
/// (`cmp` is `None`) or `π op c` normalized path-first (`cmp` holds
/// `strval(·) op c`), where `π` is a predicate-free relative path.
struct Witness<'q> {
    path: ExprId,
    steps: &'q [Step],
    cmp: Option<NodeComparison>,
}

/// Packs the *relevant* components of a context into a memo key; the
/// irrelevant components are zeroed so contexts that agree on `Relev(N)`
/// share an entry.  42-bit fields: node ids are `u32` by construction,
/// and positions/sizes are bounded by the document's node count, so any
/// document the arena can represent fits without aliasing (the previous
/// `u64` key packed 21-bit fields and had to refuse documents past 2²¹
/// nodes — the 10⁶-element XMark tier among them).
fn memo_key(relev: Relev, ctx: Context) -> u128 {
    debug_assert!(ctx.position <= u32::MAX as usize && ctx.size <= u32::MAX as usize);
    let mut key = 0u128;
    if relev.node() {
        key |= ctx.node.index() as u128;
    }
    if relev.position() {
        key |= (ctx.position as u128) << 42;
    }
    if relev.size() {
        key |= (ctx.size as u128) << 84;
    }
    key
}

/// Keeps the members of `c` that are (`keep`) or are not (`!keep`) in
/// `w`: a linear merge, or binary searches when `c` is much the smaller.
fn retain_sorted(c: &mut NodeSet, w: &NodeSet, keep: bool) {
    if c.len().saturating_mul(16) < w.len() {
        c.retain(|n| w.contains(n) == keep);
        return;
    }
    let w = w.as_slice();
    let mut j = 0;
    c.retain(|n| {
        while j < w.len() && w[j] < n {
            j += 1;
        }
        (j < w.len() && w[j] == n) == keep
    });
}

/// Whether a backward pass keeps `y` as a target of `χ`: attribute
/// targets are kept for `attribute`, and for `self`, `parent` and the
/// or-self axes (whose preimage kernels decide exactly which origins
/// reach them); the other tree axes never produce attributes.
fn axis_reaches(doc: &Document, axis: Axis, y: NodeId) -> bool {
    let is_attr = doc.kind(y).is_attribute();
    match axis {
        Axis::SelfAxis | Axis::Parent | Axis::DescendantOrSelf | Axis::AncestorOrSelf => true,
        Axis::Attribute => is_attr,
        _ => !is_attr,
    }
}

/// Whether a forward probe of `χ` from one node touches only that node's
/// own neighbourhood (itself, its parent, children or attributes), so
/// probing every candidate costs at most one pass over their
/// neighbourhoods.  The other axes always take the set path.  The
/// preimages of these axes likewise touch only their input and output.
fn one_hop(axis: Axis) -> bool {
    matches!(
        axis,
        Axis::SelfAxis | Axis::Child | Axis::Attribute | Axis::Parent
    )
}

impl<'d, 'q, 's, 'm, 'p> Run<'d, 'q, 's, 'm, 'p> {
    fn new(
        doc: &'d Document,
        query: &'q CompiledQuery,
        opt: bool,
        scratch: &'s mut Scratch,
        meter: &'m mut BudgetMeter,
        par: Option<ParSettings>,
    ) -> Self {
        let exprs = query.query().len();
        Run {
            doc,
            query,
            opt,
            memo: vec![HashMap::new(); exprs],
            backward: vec![None; exprs],
            truth: Vec::new(),
            probe_bufs: Vec::new(),
            strbuf: String::new(),
            scratch,
            meter,
            prof: None,
            par,
        }
    }
}

impl<'d, 'q> Run<'d, 'q, '_, '_, '_> {
    /// Evaluates the query root.  OPTMINCONTEXT computes it without a memo
    /// entry: the root has exactly one context, so its entry could never
    /// hit and would only clone the result.
    fn eval_root(&mut self, ctx: Context) -> Result<Value, EvalError> {
        let root = self.query.query().root();
        if self.opt {
            self.meter.charge(1)?;
            self.compute(root, ctx)
        } else {
            self.eval(root, ctx)
        }
    }

    fn eval(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        let key = memo_key(self.query.query().relev(id), ctx);
        if let Some(v) = self.memo[id.index()].get(&key) {
            if let Some(p) = &mut self.prof {
                p.memo_hit();
            }
            return Ok(v.clone());
        }
        // Memo misses are the unit of work MINCONTEXT's complexity bound
        // counts; hits are free.
        self.meter.charge(1)?;
        if let Some(p) = &mut self.prof {
            p.memo_miss();
        }
        let v = self.compute(id, ctx)?;
        self.memo[id.index()].insert(key, v.clone());
        Ok(v)
    }

    fn compute(&mut self, id: ExprId, ctx: Context) -> Result<Value, EvalError> {
        if self.opt {
            if let Some(holds) = self.try_backward(id, ctx.node)? {
                return Ok(Value::Boolean(holds));
            }
        }
        Ok(match self.query.query().node(id) {
            Node::Or(a, b) => {
                Value::Boolean(self.eval(*a, ctx)?.boolean() || self.eval(*b, ctx)?.boolean())
            }
            Node::And(a, b) => {
                Value::Boolean(self.eval(*a, ctx)?.boolean() && self.eval(*b, ctx)?.boolean())
            }
            Node::Compare(op, a, b) => {
                let va = self.eval(*a, ctx)?;
                let vb = self.eval(*b, ctx)?;
                Value::Boolean(compare(self.doc, *op, &va, &vb))
            }
            Node::Arith(op, a, b) => {
                let x = self.eval(*a, ctx)?.number(self.doc);
                let y = self.eval(*b, ctx)?.number(self.doc);
                Value::Number(arith(*op, x, y))
            }
            Node::Neg(a) => Value::Number(-self.eval(*a, ctx)?.number(self.doc)),
            Node::Union(a, b) => {
                let x = self.eval(*a, ctx)?.into_node_set()?;
                let y = self.eval(*b, ctx)?.into_node_set()?;
                Value::NodeSet(x.union(&y))
            }
            Node::Path(start, steps) => self.eval_path(id, start, steps, ctx)?,
            Node::Call(Func::Position, _) => Value::Number(ctx.position as f64),
            Node::Call(Func::Last, _) => Value::Number(ctx.size as f64),
            Node::Call(func, args) => {
                let vals = args
                    .iter()
                    .map(|&a| self.eval(a, ctx))
                    .collect::<Result<Vec<_>, _>>()?;
                funcs::apply(self.doc, *func, &vals, ctx.node)?
            }
            Node::Number(n) => Value::Number(*n),
            Node::Literal(s) => Value::String(s.to_string()),
        })
    }

    /// Set-at-a-time path evaluation with deduplication after every step.
    fn eval_path(
        &mut self,
        path_id: ExprId,
        start: &PathStart,
        steps: &[Step],
        ctx: Context,
    ) -> Result<Value, EvalError> {
        let mut cur: NodeSet = match start {
            PathStart::Root => NodeSet::singleton(self.doc.root()),
            PathStart::Context => NodeSet::singleton(ctx.node),
            PathStart::Filter {
                primary,
                predicates,
            } => {
                let primary = self.eval(*primary, ctx)?.into_node_set()?;
                let mut list: Vec<NodeId> = primary.into_vec();
                for &p in predicates {
                    list = self.filter_candidates(p, list)?;
                }
                // Filtering a document-ordered list keeps it sorted.
                NodeSet::from_sorted_vec(list)
            }
        };
        let mut next = NodeSet::new();
        for (si, step) in steps.iter().enumerate() {
            if cur.is_empty() {
                break;
            }
            // Node tests were resolved at compile time (postings-backed
            // fast paths dispatch on the resolved name).
            let test = self.query.step_test(path_id, si);
            // An axis sweep touches at least the whole context set.
            self.meter.charge(cur.len() as u64 + 1)?;
            // Only a profiled run reads the clock; the step's route and
            // cardinalities are recorded after the kernel (and, for
            // predicated steps, the predicate filtering) finish.
            let timer = self.prof.is_some().then(Instant::now);
            let input = cur.len();
            let (route, chunks, filter) = if step.predicates.is_empty() {
                // Predicate-free step: one axis sweep for the whole
                // context set, ping-ponging two reused buffers.  With
                // parallel settings attached, large sweeps run on the
                // chunked kernels (same output, merged by ordinal).
                let chunks = self.image(step.axis, test, &cur, &mut next);
                // Charge the sweep's output too: from a singleton
                // context, `preceding::*` can touch most of the
                // document, and deadline polling granularity must
                // track that work, not just the input size.
                self.meter.charge(next.len() as u64)?;
                std::mem::swap(&mut cur, &mut next);
                (classify_image_route(step.axis, test, input), chunks, None)
            } else if step.axis != Axis::Id && self.set_filterable(&step.predicates) {
                // Position-free predicates see only the candidate node,
                // so one kernel over all origins finds every candidate
                // and the predicates filter that set.  (The id axis keeps
                // the per-origin walk: its set kernel tokenizes per text
                // node, see DESIGN.md.)
                let chunks = self.image(step.axis, test, &cur, &mut next);
                // A `self` kernel only filters the context set charged
                // above; every other kernel's output is new work.
                if step.axis != Axis::SelfAxis {
                    self.meter.charge(next.len() as u64)?;
                }
                let mode = self.filter_all(&step.predicates, &mut next)?;
                std::mem::swap(&mut cur, &mut next);
                (
                    classify_image_route(step.axis, test, input),
                    chunks,
                    Some(mode),
                )
            } else {
                // Positional predicates need per-origin candidate lists in
                // axis order; predicate values are memoized on Relev.
                // Above the size threshold the context set fans out
                // across the pool — each worker handles a contiguous
                // origin range with its own memo table and fuel
                // sub-allowance, and per-origin results concatenate in
                // origin order, identical to this sequential loop.
                let fanout = self
                    .par
                    .as_ref()
                    .map_or(0, |ps| ps.config.chunks_for(&ps.pool, cur.len()));
                let (acc, chunks) = if fanout >= 2 {
                    (self.fan_out_predicates(step, test, &cur, fanout)?, fanout)
                } else {
                    let mut acc = Vec::new();
                    let mut cands = Vec::new();
                    let mut chunks = 0usize;
                    for x in cur.iter() {
                        // A large single-origin arena scan (`preceding`,
                        // `following`) can still chunk even when the
                        // context set is too small to fan out.
                        chunks += match &self.par {
                            Some(ps) => axis_nodes_into_par(
                                self.doc, step.axis, x, test, &mut cands, &ps.pool, ps.config,
                            ),
                            None => {
                                self.doc.axis_nodes_into(step.axis, x, test, &mut cands);
                                0
                            }
                        };
                        let mut kept = std::mem::take(&mut cands);
                        for &p in &step.predicates {
                            kept = self.filter_candidates(p, kept)?;
                        }
                        acc.extend_from_slice(&kept);
                        cands = kept;
                    }
                    (acc, chunks)
                };
                cur = NodeSet::from_unsorted_with_capacity(self.doc.len(), acc);
                (
                    classify_single_route(step.axis, test),
                    chunks,
                    self.opt.then_some(FilterMode::Origin),
                )
            };
            if let Some(p) = &mut self.prof {
                let obs = StepObservation {
                    route,
                    input,
                    output: cur.len(),
                    time: timer.expect("profiled step has a timer").elapsed(),
                    chunks,
                    filter,
                };
                p.record_step(path_id, si, step, obs);
            }
        }
        Ok(Value::NodeSet(cur))
    }

    /// `χ(cur)` filtered by `test` into `out`, on the chunked kernel when
    /// parallel settings are attached; returns the chunks dispatched.
    fn image(&mut self, axis: Axis, test: ResolvedTest, cur: &NodeSet, out: &mut NodeSet) -> usize {
        match &self.par {
            Some(ps) => axis_image_into_par(
                self.doc,
                axis,
                cur,
                test,
                self.scratch,
                out,
                &ps.pool,
                ps.config,
            ),
            None => {
                axis_image_into(self.doc, axis, cur, test, self.scratch, out);
                0
            }
        }
    }

    /// Fans a predicated step's context set out across the pool: each of
    /// the `k` chunks is a contiguous origin range evaluated by a fresh
    /// sub-[`Run`] (own memo table, own backward slots, a pool-stashed
    /// scratch, and a fuel sub-allowance from
    /// [`BudgetMeter::split`]).  Per-origin results concatenate in chunk =
    /// origin order, so the accumulated candidate list is exactly what
    /// the sequential loop builds; worker memo tables merge back
    /// (first-write-wins — values are deterministic, so order is moot)
    /// and unspent fuel is absorbed.
    ///
    /// On failure the earliest chunk's error is returned — deterministic,
    /// though a tight fuel cap may trip at a different point than
    /// sequential evaluation would (see DESIGN.md "Parallel evaluation").
    fn fan_out_predicates(
        &mut self,
        step: &Step,
        test: ResolvedTest,
        origins: &NodeSet,
        k: usize,
    ) -> Result<Vec<NodeId>, EvalError> {
        let ps = self
            .par
            .clone()
            .expect("fan-out requires parallel settings");
        fanout_counter().inc();
        let doc = self.doc;
        let query = self.query;
        let opt = self.opt;
        let origins = origins.as_slice();
        let axis = step.axis;
        let predicates = &step.predicates;
        let meters: Vec<Mutex<Option<BudgetMeter>>> = self
            .meter
            .split(k)
            .into_iter()
            .map(|m| Mutex::new(Some(m)))
            .collect();
        let slots: Vec<Mutex<Option<ChunkOutcome>>> = (0..k).map(|_| Mutex::new(None)).collect();
        ps.pool.run(k, &|i| {
            let (s, e) = chunk_bounds(origins.len(), k, i);
            let mut meter = lock(&meters[i]).take().expect("meter prepared per chunk");
            let mut scratch = ps.pool.take_scratch();
            // Workers never open nested regions.
            let mut sub = Run::new(doc, query, opt, &mut scratch, &mut meter, None);
            let mut acc = Vec::new();
            let mut cands = Vec::new();
            let mut err = None;
            'origins: for &x in &origins[s..e] {
                doc.axis_nodes_into(axis, x, test, &mut cands);
                let mut kept = std::mem::take(&mut cands);
                for &p in predicates {
                    match sub.filter_candidates(p, kept) {
                        Ok(v) => kept = v,
                        Err(failure) => {
                            err = Some(failure);
                            break 'origins;
                        }
                    }
                }
                acc.extend_from_slice(&kept);
                cands = kept;
            }
            let memo = std::mem::take(&mut sub.memo);
            let backward = std::mem::take(&mut sub.backward);
            drop(sub);
            ps.pool.put_scratch(scratch);
            *lock(&meters[i]) = Some(meter);
            *lock(&slots[i]) = Some(ChunkOutcome {
                acc,
                memo,
                backward,
                err,
            });
        });
        for m in &meters {
            let child = lock(m).take().expect("every chunk returns its meter");
            self.meter.absorb(child);
        }
        let mut first_err: Option<EvalError> = None;
        let mut acc = Vec::new();
        for slot in slots {
            let out = lock(&slot).take().expect("every chunk completes");
            if let Some(e) = out.err {
                if first_err.is_none() {
                    first_err = Some(e);
                }
                continue;
            }
            if first_err.is_some() {
                continue;
            }
            acc.extend(out.acc);
            // Worker memo entries stay useful for later steps of this
            // evaluation; merge them back (values are deterministic).
            for (dst, src) in self.memo.iter_mut().zip(out.memo) {
                for (key, val) in src {
                    dst.entry(key).or_insert(val);
                }
            }
            for (dst, src) in self.backward.iter_mut().zip(out.backward) {
                if dst.is_none() {
                    *dst = src;
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(acc),
        }
    }

    fn filter_candidates(
        &mut self,
        pred: ExprId,
        cands: Vec<NodeId>,
    ) -> Result<Vec<NodeId>, EvalError> {
        let size = cands.len();
        self.meter.charge(size as u64 + 1)?;
        let mut kept = Vec::with_capacity(size);
        for (i, &y) in cands.iter().enumerate() {
            let inner = Context {
                node: y,
                position: i + 1,
                size,
            };
            if self.eval(pred, inner)?.boolean() {
                kept.push(y);
            }
        }
        Ok(kept)
    }

    // ---- OPTMINCONTEXT: set-at-a-time predicate filters ----------------

    /// Whether OPTMINCONTEXT filters with `preds` set at a time: every
    /// predicate is truth-valued and blind to position and size, so its
    /// value depends on the candidate node alone.
    fn set_filterable(&self, preds: &[ExprId]) -> bool {
        let q = self.query.query();
        self.opt
            && preds.iter().all(|&p| {
                let r = q.relev(p);
                !r.position() && !r.size() && q.value_type(p) != ValueType::Number
            })
    }

    /// Applies position-free predicates to the candidate set in order,
    /// reporting [`FilterMode::Probe`] if any of them probed.
    fn filter_all(
        &mut self,
        preds: &[ExprId],
        cands: &mut NodeSet,
    ) -> Result<FilterMode, EvalError> {
        let mut mode = FilterMode::Set;
        for &p in preds {
            if cands.is_empty() {
                break;
            }
            mode = mode.max(self.filter_set(p, cands)?);
        }
        Ok(mode)
    }

    /// Keeps the candidates for which the position-free predicate `p`
    /// holds: connectives become set operations, witness shapes a backward
    /// pass or a forward probe, anything else a per-node evaluation.
    fn filter_set(&mut self, p: ExprId, cands: &mut NodeSet) -> Result<FilterMode, EvalError> {
        let q = self.query.query();
        if q.relev(p).is_empty() {
            // Context-independent: one value for every candidate.
            let ctx = Context {
                node: cands.first().expect("filtered sets are non-empty"),
                position: 1,
                size: 1,
            };
            if !self.eval(p, ctx)?.boolean() {
                cands.clear();
            }
            return Ok(FilterMode::Set);
        }
        match q.node(p) {
            Node::And(a, b) => {
                let ma = self.filter_set(*a, cands)?;
                if cands.is_empty() {
                    return Ok(ma);
                }
                Ok(ma.max(self.filter_set(*b, cands)?))
            }
            Node::Or(a, b) => {
                let mut left = cands.clone();
                let ma = self.filter_set(*a, &mut left)?;
                retain_sorted(cands, &left, false);
                let mb = if cands.is_empty() {
                    FilterMode::Set
                } else {
                    self.filter_set(*b, cands)?
                };
                *cands = left.union(cands);
                Ok(ma.max(mb))
            }
            Node::Call(Func::Not, args) => {
                let mut holds = cands.clone();
                let m = self.filter_set(args[0], &mut holds)?;
                retain_sorted(cands, &holds, false);
                Ok(m)
            }
            _ => match self.witness(p) {
                Some(w) => self.filter_witness(p, &w, cands),
                None => {
                    self.probe_each(p, cands, |run, n| {
                        let ctx = Context {
                            node: n,
                            position: 1,
                            size: 1,
                        };
                        Ok(run.compute(p, ctx)?.boolean())
                    })?;
                    Ok(FilterMode::Probe)
                }
            },
        }
    }

    /// A witness-shaped predicate filters by its witness set when that is
    /// built already or cheaper than probing, and by a forward probe per
    /// candidate otherwise.
    ///
    /// The cost rule: building the set reads the seed `Tₖ` once; probing
    /// walks each candidate's neighbourhood once.  So probe exactly when
    /// every step of `π` is one-hop (a probe's cost is bounded by the
    /// candidate's own neighbourhood) and `|C| < |Tₖ|`.
    fn filter_witness(
        &mut self,
        p: ExprId,
        w: &Witness<'q>,
        cands: &mut NodeSet,
    ) -> Result<FilterMode, EvalError> {
        let probe = self.backward[p.index()].is_none()
            && w.steps.iter().all(|s| one_hop(s.axis))
            && cands.len() < self.seed_size(w);
        if probe {
            self.probe_each(p, cands, |run, n| run.probe_from(w, 0, n))?;
            return Ok(FilterMode::Probe);
        }
        if self.backward[p.index()].is_none() {
            let set = self.build_witnesses(w)?;
            self.backward[p.index()] = Some(set);
        }
        let set = self.backward[p.index()].as_ref().expect("built above");
        retain_sorted(cands, set, true);
        Ok(FilterMode::Set)
    }

    /// Keeps the candidates for which `holds` is true, memoizing each
    /// node's value in `p`'s truth column so a step re-run from other
    /// origins never recomputes it.  Each computed value costs one unit
    /// of fuel on top of what `holds` charges.  (EXPLAIN's memo counters
    /// count the `Relev`-keyed hash memo only, not this column.)
    fn probe_each(
        &mut self,
        p: ExprId,
        cands: &mut NodeSet,
        mut holds: impl FnMut(&mut Self, NodeId) -> Result<bool, EvalError>,
    ) -> Result<(), EvalError> {
        if self.truth.is_empty() {
            self.truth.resize_with(self.query.query().len(), || None);
        }
        let mut kept = Vec::with_capacity(cands.len());
        for n in cands.iter() {
            let known = self.truth[p.index()]
                .as_ref()
                .map_or(0, |col| col.vals[n.index()]);
            let value = if known != 0 {
                known == 2
            } else {
                self.meter.charge(1)?;
                let v = holds(self, n)?;
                let col = self.truth[p.index()].get_or_insert_with(|| TruthColumn {
                    vals: self.scratch.take_column(self.doc.len()),
                    set: Vec::new(),
                });
                col.vals[n.index()] = 1 + u8::from(v);
                col.set.push(n);
                v
            };
            if value {
                kept.push(n);
            }
        }
        *cands = NodeSet::from_sorted_vec(kept);
        Ok(())
    }

    /// Whether `π` (from step `level` on) reaches a witness from `node`,
    /// walking depth-first and stopping at the first one.  Charges each
    /// walk's output.
    fn probe_from(
        &mut self,
        w: &Witness<'q>,
        level: usize,
        node: NodeId,
    ) -> Result<bool, EvalError> {
        let Some(step) = w.steps.get(level) else {
            return Ok(match &w.cmp {
                None => true,
                Some(cmp) => cmp.holds(self.doc, node, &mut self.strbuf),
            });
        };
        if self.probe_bufs.len() <= level {
            self.probe_bufs.resize_with(level + 1, Vec::new);
        }
        let mut buf = std::mem::take(&mut self.probe_bufs[level]);
        let test = self.query.step_test(w.path, level);
        self.doc.axis_nodes_into(step.axis, node, test, &mut buf);
        let mut found = self.meter.charge(buf.len() as u64 + 1).map(|()| false);
        if found.is_ok() {
            for &y in &buf {
                found = self.probe_from(w, level + 1, y);
                if !matches!(found, Ok(false)) {
                    break;
                }
            }
        }
        self.probe_bufs[level] = buf;
        found
    }

    // ---- OPTMINCONTEXT: backward propagation --------------------------

    /// If `id` is a predicate of one of the witness shapes, answers it for
    /// one context node: by membership in its witness set, or — for a
    /// one-hop `π`, which costs one node's neighbourhood — by a forward
    /// probe (the caller memoizes the value).
    fn try_backward(&mut self, id: ExprId, ctx_node: NodeId) -> Result<Option<bool>, EvalError> {
        if self.backward[id.index()].is_none() {
            let Some(w) = self.witness(id) else {
                return Ok(None);
            };
            if w.steps.iter().all(|s| one_hop(s.axis)) {
                return self.probe_from(&w, 0, ctx_node).map(Some);
            }
            let set = self.build_witnesses(&w)?;
            self.backward[id.index()] = Some(set);
        }
        Ok(self.backward[id.index()]
            .as_ref()
            .map(|set| set.contains(ctx_node)))
    }

    /// The [`Witness`] form of a `boolean(π)` / `π RelOp c` / `c RelOp π`
    /// predicate, or `None` when the shape does not apply.
    fn witness(&self, id: ExprId) -> Option<Witness<'q>> {
        let q = self.query.query();
        match q.node(id) {
            Node::Call(Func::Boolean, args) => {
                let (path, steps) = self.simple_relative_path(args[0])?;
                Some(Witness {
                    path,
                    steps,
                    cmp: None,
                })
            }
            Node::Compare(op, a, b) => {
                // Normalize to path-on-the-left.
                let ((path, steps), scalar, op) = match self.simple_relative_path(*a) {
                    Some(path) => (path, self.constant_scalar(*b)?, *op),
                    None => (
                        self.simple_relative_path(*b)?,
                        self.constant_scalar(*a)?,
                        op.swapped(),
                    ),
                };
                Some(Witness {
                    path,
                    steps,
                    cmp: Some(NodeComparison::new(op, &scalar)),
                })
            }
            _ => None,
        }
    }

    /// `|Tₖ|` before the comparison: the postings length for a name test
    /// on `π`'s last step, `|D|` for a kind test (or an empty `π`).
    fn seed_size(&self, w: &Witness<'q>) -> usize {
        match self.postings(w) {
            Some(p) => p.len(),
            None => self.doc.len(),
        }
    }

    /// The label postings that are exactly the nodes passing `π`'s last
    /// step (element postings, or attribute postings on the attribute
    /// axis), when its test is a name test.
    fn postings(&self, w: &Witness<'q>) -> Option<&'d [NodeId]> {
        let last = w.steps.len().checked_sub(1)?;
        match self.query.step_test(w.path, last) {
            ResolvedTest::Name(nm) => Some(if w.steps[last].axis == Axis::Attribute {
                self.doc.attribute_postings(nm)
            } else {
                self.doc.element_postings(nm)
            }),
            ResolvedTest::NeverMatches => Some(&[]),
            _ => None,
        }
    }

    /// The set of context nodes for which a witness-shaped predicate
    /// holds, `χ₁⁻¹(t₁ ∩ … χₖ⁻¹(Tₖ))`, by one backward pass: the seed
    /// `Tₖ` (nodes passing the last step's test, narrowed by the
    /// comparison) is read from postings or a kind scan, then one
    /// preimage per step, right to left, filtering by each earlier step's
    /// node test.
    ///
    /// Attribute nodes are kept only where the forward axis can actually
    /// produce them (see [`axis_reaches`]); the preimage kernels
    /// themselves are exact for attribute *origins* (see
    /// [`minctx_xml::axes::axis_preimage`]), so every axis propagates
    /// backward exactly.
    ///
    /// Fuel: the seed's size (or `|D|` for a kind scan), then each
    /// preimage's input and output, plus `|D|` for a sweeping kernel.
    fn build_witnesses(&mut self, w: &Witness<'q>) -> Result<NodeSet, EvalError> {
        if let Some(p) = &mut self.prof {
            p.backward_pass();
        }
        let doc = self.doc;
        let mut seed: Vec<NodeId> = match (self.postings(w), w.steps.last()) {
            (Some(posts), _) => {
                self.meter.charge(posts.len() as u64)?;
                posts.to_vec()
            }
            (None, last) => {
                self.meter.charge(doc.len() as u64)?;
                match last {
                    Some(step) => {
                        let test = self.query.step_test(w.path, w.steps.len() - 1);
                        doc.all_nodes()
                            .filter(|&y| {
                                axis_reaches(doc, step.axis, y) && test.matches(doc, step.axis, y)
                            })
                            .collect()
                    }
                    None => doc.all_nodes().collect(),
                }
            }
        };
        if let Some(cmp) = &w.cmp {
            let buf = &mut self.strbuf;
            seed.retain(|&y| cmp.holds(doc, y, buf));
        }
        let mut set = NodeSet::from_sorted_vec(seed);
        let mut pre = NodeSet::new();
        for (si, step) in w.steps.iter().enumerate().rev() {
            if set.is_empty() {
                // Every earlier preimage of the empty set is empty.
                break;
            }
            if si + 1 < w.steps.len() {
                // The seed already passed the last step's test.
                let test = self.query.step_test(w.path, si);
                set.retain(|y| axis_reaches(doc, step.axis, y) && test.matches(doc, step.axis, y));
            }
            // The one-hop preimages touch only their input and output;
            // every other kernel sweeps the arena.
            let sweep = if one_hop(step.axis) { 0 } else { doc.len() };
            self.meter.charge((set.len() + sweep) as u64 + 1)?;
            match &self.par {
                Some(ps) => {
                    axis_preimage_into_par(
                        doc,
                        step.axis,
                        &set,
                        self.scratch,
                        &mut pre,
                        &ps.pool,
                        ps.config,
                    );
                }
                None => axis_preimage_into(doc, step.axis, &set, self.scratch, &mut pre),
            }
            self.meter.charge(pre.len() as u64)?;
            std::mem::swap(&mut set, &mut pre);
        }
        Ok(set)
    }

    /// A relative, predicate-free location path — the shape the backward
    /// optimization handles.  Every axis propagates backward exactly: the
    /// preimage kernels handle attribute nodes on both sides of the
    /// relation.
    fn simple_relative_path(&self, id: ExprId) -> Option<(ExprId, &'q [Step])> {
        match self.query.query().node(id) {
            Node::Path(PathStart::Context, steps)
                if steps.iter().all(|s| s.predicates.is_empty()) =>
            {
                Some((id, steps))
            }
            _ => None,
        }
    }

    /// A constant scalar operand (number or string literal).  Booleans are
    /// excluded: comparing a node-set against a boolean converts the *set*,
    /// which is not an existential per-node comparison.
    fn constant_scalar(&self, id: ExprId) -> Option<Value> {
        match self.query.query().node(id) {
            Node::Number(n) => Some(Value::Number(*n)),
            Node::Literal(s) => Some(Value::String(s.to_string())),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minctx_syntax::parse_xpath;
    use minctx_xml::parse;

    fn eval_one(doc: &minctx_xml::Document, query: &str, optimized: bool) -> Value {
        let q = parse_xpath(query).unwrap();
        let cq = CompiledQuery::new(doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        MinContext {
            optimized,
            parallel: None,
        }
        .evaluate(doc, &cq, Context::document(doc), &mut scratch, &mut meter)
        .unwrap()
    }

    fn eval_both(xml: &str, query: &str) -> (Value, Value) {
        let doc = parse(xml).unwrap();
        (eval_one(&doc, query, false), eval_one(&doc, query, true))
    }

    #[test]
    fn backward_propagation_agrees_with_forward() {
        let xml = "<a><b><c>100</c></b><b><c>7</c></b><b/></a>";
        for q in [
            "/a/b[c = 100]",
            "/a/b[c]",
            "/a/b[not(c)]",
            "/a/b[descendant::c = 7]",
            "/a/b[c != 100]",
            "/a/b[100 = c]",
            "/a/b[c = 'x']",
            "//*[self::c = 7]",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
    }

    #[test]
    fn backward_propagation_handles_attribute_nodes() {
        // node() matches attribute nodes, but tree axes never produce
        // them; and attribute *origins* of reverse / or-self axes are
        // invisible to mirror-axis preimages (those fall back to forward
        // evaluation).  Both directions once leaked here.
        let xml = r#"<r><a y="x"/><b>x</b></r>"#;
        for q in [
            "//*[node() = 'x']",
            "//*[node()]",
            "//@*[following::b = 'x']",
            "//@*[ancestor::r]",
            "//@*[self::node() = 'x']",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
        // And pin the absolute answers so both being wrong can't pass.
        let doc = parse(xml).unwrap();
        let v = eval_one(&doc, "count(//*[node() = 'x'])", true);
        assert_eq!(v, Value::Number(2.0)); // <r> and <b>, not <a>
        let v = eval_one(&doc, "count(//@*[ancestor::r])", true);
        assert_eq!(v, Value::Number(1.0)); // the y attribute
    }

    #[test]
    fn backward_propagation_covers_reverse_and_or_self_axes() {
        // These axes were excluded from backward propagation while the
        // preimage kernels were attribute-inexact; they now take the
        // backward path and must agree with forward evaluation.
        let xml = r#"<r><a y="x"><b>x</b></a><c>zz<d q="7"/></c></r>"#;
        for q in [
            "//*[parent::a]",
            "//*[ancestor::a = 'x']",
            "//*[ancestor-or-self::c = 'zz']",
            "//*[descendant-or-self::b = 'x']",
            "//@*[descendant-or-self::node() = 'x']",
            "//*[preceding::b = 'x']",
            "//@*[preceding::b]",
            "//*[following::d]",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
    }

    #[test]
    fn comparison_witnesses_agree_on_element_and_attribute_values() {
        // The witness seed applies the last step's node test before
        // comparing, so element values (whole-subtree string values) and
        // attribute values must both come out exactly as MINCONTEXT's
        // forward comparison has them.
        let xml = r#"<r><item v="5">7</item><item v="50"><n>60</n>1</item><other v="500">700</other><item/></r>"#;
        for q in [
            "//item[@v > 10]",
            "//item[@v != 5]",
            "//item[. > 10]",
            "//item[n > 10]",
            "//r[item > 10]",
            "//r[item = '7']",
            "//*[@v > 10]",
            "//*[. = '601']",
            "//@v[. > 10]",
            "//@v[10 < .]",
            "count(//item[@v > 10])",
            "/r/item[position() = 2][@v > 10]",
        ] {
            let (plain, opt) = eval_both(xml, q);
            assert_eq!(plain, opt, "query {q}");
        }
        let doc = parse(xml).unwrap();
        // Attribute-valued: the items with v = 50 (v = 500 is on <other>).
        let v = eval_one(&doc, "count(//item[@v > 10])", true);
        assert_eq!(v, Value::Number(1.0));
        // Element-valued: strval(item₂) = "601", strval(item₁) = "7".
        let v = eval_one(&doc, "count(//item[. > 10])", true);
        assert_eq!(v, Value::Number(1.0));
        let v = eval_one(&doc, "count(//*[. = '601'])", true);
        assert_eq!(v, Value::Number(1.0));
    }

    #[test]
    fn backward_propagation_through_id_axis() {
        let xml = r#"<a id="r"><b id="x">y</b><c id="y">100</c></a>"#;
        // b's id-step dereferences to c, whose value is 100.
        let (plain, opt) = eval_both(xml, "//*[id(string(.)) = 100]");
        assert_eq!(plain, opt);
        if let Value::NodeSet(ns) = &plain {
            assert_eq!(ns.len(), 1);
        } else {
            panic!("expected node-set");
        }
    }

    #[test]
    fn memo_shares_position_only_predicates_across_nodes() {
        // `position() = 2` has Relev = {position}: its memo entries are
        // keyed by k alone, shared across every context node and size.
        let doc = parse("<a><b><x/><x/><x/></b><c><x/><x/><x/></c></a>").unwrap();
        let q = parse_xpath("/a/*/x[position() = 2]").unwrap();
        let cq = CompiledQuery::new(&doc, &q);
        let mut scratch = Scratch::new();
        let mut meter = BudgetMeter::unlimited();
        let mut run = Run::new(&doc, &cq, false, &mut scratch, &mut meter, None);
        let v = run.eval(q.root(), Context::document(&doc)).unwrap();
        assert_eq!(v.as_node_set().unwrap().len(), 2);
        // Find the comparison predicate node and check its memo size: three
        // positions arise (k = 1, 2, 3), from six candidate evaluations.
        let pred_memo: Vec<usize> = q
            .iter()
            .filter(|(id, n)| matches!(n, Node::Compare(..)) && !q.relev(*id).node())
            .map(|(id, _)| run.memo[id.index()].len())
            .collect();
        assert_eq!(pred_memo, vec![3]);
    }
}
