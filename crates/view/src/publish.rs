//! Publishing: evaluating a schema-tree query to an XML document, `v(I)`.
//!
//! The public entry point is [`crate::Engine`] / [`crate::Session`] (see
//! the `engine` module); this module holds the one publish walk those
//! drive: the **plan-cache** types (each node's tag query compiled once
//! into an [`xvc_rel::PreparedPlan`]), **set-oriented** publishing (the
//! root elements cut into windows of [`ROOT_WINDOW`], each expanded by one
//! breadth-first frontier walk running one
//! [`xvc_rel::PreparedPlan::execute_batch_stats`] per (view node, wave)
//! instead of one execution per parent tuple) into a per-window element
//! store, a bounded per-window **result memo** (repeated parent tuples
//! with equal relevant binding values reuse the child relation),
//! **parallel** window evaluation (`std::thread::scope`) that keeps
//! document order and thread-count-independent statistics, and the drains
//! of a finished window: into the output [`Document`] (recording the trace
//! and the splice index), into an [`XmlSink`], and the **delta-republish**
//! graft. The tuple-at-a-time walk of Definition 1 lives in
//! [`crate::reference`], as a test oracle only.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xvc_rel::{
    eval_query_stats, Database, EvalOptions, EvalStats, NamedTuple, ParamEnv, PreparedPlan,
    Relation, ScalarExpr, SelectItem, SelectQuery,
};
use xvc_xml::{Document, NodeId, XmlSink};

use crate::error::Result;
use crate::lineage::{KeyFilter, Lineage};
use crate::schema_tree::{AttrProjection, SchemaTree, ViewNodeId};

/// Materialization statistics for one publish run.
///
/// These are the paper's efficiency currency: the composed stylesheet view
/// wins precisely because it materializes fewer elements and runs fewer
/// tag queries than publishing the full view and transforming it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PublishStats {
    /// XML elements created.
    pub elements: usize,
    /// Attributes attached.
    pub attributes: usize,
    /// Tag-query executions (one per parent tuple per child node).
    pub queries_run: usize,
    /// Tuples fetched across all tag-query executions.
    pub tuples_fetched: usize,
    /// Tag queries / guard probes compiled into a [`PreparedPlan`] during
    /// this publish (plan-cache misses).
    pub plans_prepared: usize,
    /// Nodes whose plan was already in the publisher's cache from an
    /// earlier publish against the same catalog (plan-cache hits).
    /// Negatively cached compilation failures count here too: the cache
    /// answered ("this query does not prepare") without recompiling.
    pub plan_cache_hits: usize,
    /// Tag queries / guard probes that failed to compile this publish.
    /// The failure is cached, so a given node fails at most once per
    /// catalog; the node falls back to the interpreter.
    pub plan_prepare_failures: usize,
    /// Tag-query executions served from the parameterized-result memo
    /// (equal relevant binding values, relation reused without touching
    /// the engine).
    pub memo_hits: usize,
    /// Memoizable executions that had to run the engine.
    pub memo_misses: usize,
    /// Set-oriented executions: one per (view node, wave) of each window
    /// with at least one non-memoized binding. Root-level queries run once
    /// and unbatched, and a node whose plan failed to prepare runs through
    /// the interpreter per binding, so neither counts here; nor does
    /// anything the [`crate::reference`] walk runs.
    pub batches_executed: usize,
    /// Largest number of bindings any single batch carried (merged with
    /// `max`, not `+`, across windows).
    pub bindings_per_batch_max: usize,
    /// Rows returned by batched executions and regrouped back to their
    /// parent bindings. Memo-served parents reuse an existing relation
    /// and are **not** counted here.
    pub rows_regrouped: usize,
    /// Subtree roots spliced into the previous document by
    /// [`crate::Session::republish_delta`]. Zero on full publishes.
    pub nodes_respliced: usize,
    /// Batches the delta path re-executed ([`crate::Session::republish_delta`]
    /// only; equals `batches_executed` when the delta path had to fall
    /// back to a full republish). Zero on full publishes.
    pub batches_reexecuted: usize,
    /// Rows in the [`xvc_rel::Delta`] a delta republish consumed. Zero on
    /// full publishes.
    pub delta_rows_in: usize,
}

impl PublishStats {
    /// Adds `other`'s counters into `self` (used to merge per-window
    /// statistics deterministically).
    pub fn absorb(&mut self, other: &PublishStats) {
        self.elements += other.elements;
        self.attributes += other.attributes;
        self.queries_run += other.queries_run;
        self.tuples_fetched += other.tuples_fetched;
        self.plans_prepared += other.plans_prepared;
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_prepare_failures += other.plan_prepare_failures;
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.batches_executed += other.batches_executed;
        self.bindings_per_batch_max = self
            .bindings_per_batch_max
            .max(other.bindings_per_batch_max);
        self.rows_regrouped += other.rows_regrouped;
        self.nodes_respliced += other.nodes_respliced;
        self.batches_reexecuted += other.batches_reexecuted;
        self.delta_rows_in += other.delta_rows_in;
    }

    /// This run's counters with the batch-only and delta-only ones zeroed —
    /// what the tuple-at-a-time [`crate::reference`] walk reports for the
    /// same publish, which is identical on every other field (the equality
    /// the engine-vs-reference tests assert).
    pub fn without_batch_counters(&self) -> PublishStats {
        PublishStats {
            batches_executed: 0,
            bindings_per_batch_max: 0,
            rows_regrouped: 0,
            nodes_respliced: 0,
            batches_reexecuted: 0,
            delta_rows_in: 0,
            ..*self
        }
    }

    /// Fraction of plan lookups served by the cache:
    /// `hits / (hits + prepared)`, or `0.0` when no plans were looked up.
    pub fn plan_cache_hit_rate(&self) -> f64 {
        let total = self.plan_cache_hits + self.plans_prepared;
        if total == 0 {
            0.0
        } else {
            self.plan_cache_hits as f64 / total as f64
        }
    }
}

/// One emitted element, recorded when publishing with a trace: which view
/// node produced it, at which document path, under which bindings.
///
/// This is the attribution layer the divergence reporter uses — given the
/// XML path of a wrong subtree it recovers the tag query and [`ParamEnv`]
/// that generated it.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Indexed element path, e.g. `/metro[2]/hotel[1]` (indices count
    /// same-tag siblings in document order, 1-based).
    pub path: String,
    /// The schema-tree node that emitted the element.
    pub view: ViewNodeId,
    /// The parameter environment its tag query (or guard) ran under.
    pub env: ParamEnv,
}

/// Per-element provenance of one publish run, in document order.
#[derive(Debug, Clone, Default)]
pub struct PublishTrace {
    /// One entry per emitted element, in document order.
    pub entries: Vec<TraceEntry>,
}

impl PublishTrace {
    /// Finds the entry for an exact indexed path.
    pub fn lookup(&self, path: &str) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.path == path)
    }

    /// Finds the entry for the longest recorded prefix of `path` (the
    /// deepest emitted ancestor of a node that was never produced).
    pub fn deepest_ancestor(&self, path: &str) -> Option<&TraceEntry> {
        self.entries
            .iter()
            .filter(|e| path == e.path || path.starts_with(&format!("{}/", e.path)))
            .max_by_key(|e| e.path.len())
    }
}

/// Splice provenance of one published element: which view node produced
/// it and the parameter environment its *children* were expanded under.
/// This is exactly what the delta path needs to re-run a child node under
/// one surviving parent instance. The environment is shared, not copied:
/// sibling elements and every later splice index point at one allocation.
#[derive(Debug, Clone)]
pub struct SpliceEntry {
    /// The schema-tree node that emitted the element.
    pub view: ViewNodeId,
    /// The environment the element's children run under (the element's
    /// own binding variable included). `None` when the view node has no
    /// children: a leaf's environment can never seed a delta.
    pub child_env: Option<Arc<ParamEnv>>,
}

/// Per-element splice provenance of a publish, keyed by document node —
/// the structural index [`crate::Session::republish_delta`] patches
/// through. Recorded only when [`crate::Engine::incremental`] is on.
#[derive(Debug, Clone, Default)]
pub struct SpliceIndex {
    /// One entry per emitted element.
    pub entries: HashMap<NodeId, SpliceEntry>,
}

/// Everything one publish run produced.
#[derive(Debug)]
pub struct Published {
    /// The XML document `v(I)`.
    pub document: Document,
    /// Materialization counters (elements, queries, cache behavior).
    pub stats: PublishStats,
    /// Relational-engine work accumulated across every tag-query / guard
    /// evaluation of the run.
    pub eval: EvalStats,
    /// Per-element provenance; `Some` only when tracing was requested via
    /// [`crate::Engine::traced`].
    pub trace: Option<PublishTrace>,
    /// Splice provenance, recorded while each window is drained into the
    /// document; `Some` only with [`crate::Engine::incremental`] on (delta
    /// republishes keep it current).
    pub splice: Option<SpliceIndex>,
    /// View nodes whose guard / tag batches a delta republish actually
    /// re-executed — the measured set the soundness tests compare against
    /// the static dependency map. Empty on full publishes.
    pub reexecuted: Vec<ViewNodeId>,
}

/// Distinguishes a node's tag query from its emission-guard probe in the
/// plan cache and result memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Role {
    Tag,
    Guard,
}

pub(crate) type PlanKey = (u32, Role);

/// Outcome of one compilation attempt, cached either way: a usable plan,
/// or a remembered failure so the publisher never retries compiling a
/// query the catalog cannot satisfy (it falls back to the interpreter).
#[derive(Debug)]
pub(crate) enum PlanEntry {
    Ready(Box<PreparedPlan>),
    Failed,
}

/// Compiled plans for one schema tree, valid for one catalog. Owned by
/// [`crate::Engine`] behind an `RwLock` and shared by every session.
#[derive(Debug, Default)]
pub(crate) struct PlanCache {
    /// Fingerprint of the catalog the cached plans were compiled against
    /// ([`Database::catalog_fingerprint`]); a different fingerprint
    /// invalidates every plan without ever materializing an
    /// [`xvc_rel::Catalog`].
    pub(crate) fingerprint: Option<u64>,
    /// Whether every plan the tree needs is present for `fingerprint` —
    /// the flag concurrent sessions key their hit accounting on (a
    /// partially-filled cache is only ever observed under the write
    /// lock).
    pub(crate) complete: bool,
    pub(crate) plans: HashMap<PlanKey, PlanEntry>,
}

/// Entries per window's result memo; inserts are skipped beyond this.
pub(crate) const MEMO_CAP: usize = 256;

/// Root-level element instances per window, the unit of work of a
/// publish. The root instances are cut, in document order, into windows
/// of this many; each window runs one breadth-first frontier walk whose
/// wave 0 is its root elements, so every (view node, wave) executes one
/// batch per window. The streaming path drains one window at a time, so
/// its emission peak is the largest window of root subtrees. Larger
/// windows batch more but hold more of the document at once.
pub const ROOT_WINDOW: usize = 8;

/// Publish options, fixed per [`crate::Engine`] (see the builder methods
/// there for what each does).
#[derive(Debug, Clone)]
pub(crate) struct PublishConfig {
    pub(crate) tracing: bool,
    pub(crate) parallel: usize,
    pub(crate) incremental: bool,
}

/// One publish execution: a validated schema tree plus the plan set the
/// engine ensured for the target catalog. [`crate::Session`] constructs
/// one per call through the wrappers below.
struct Run<'a> {
    tree: &'a SchemaTree,
    plans: &'a HashMap<PlanKey, PlanEntry>,
    cfg: &'a PublishConfig,
}

/// Full-publish orchestration behind [`crate::Session::publish`]. The
/// caller has already validated `tree` and ensured `plans` is current for
/// `db`'s catalog; `stats` carries the plan-cache counters it accumulated
/// doing so.
pub(crate) fn run_full_publish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    stats: PublishStats,
) -> Result<Published> {
    Run { tree, plans, cfg }.full(db, stats)
}

/// Delta-republish orchestration behind
/// [`crate::Session::republish_delta`]. Same caller contract as
/// [`run_full_publish`], plus: `lineage` was analyzed from `tree` and
/// `prev` carries a splice index (the caller handles the full-republish
/// fallback).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_delta_republish(
    tree: &SchemaTree,
    lineage: &Lineage,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    prev: &Published,
    delta: &xvc_rel::Delta,
    stats: PublishStats,
) -> Result<Published> {
    Run { tree, plans, cfg }.delta(db, lineage, prev, delta, stats)
}

/// Streaming-publish orchestration behind [`crate::Session::publish_to`]:
/// the same walk as [`run_full_publish`], each finished window drained
/// into `sink` instead of a document — serialized XML is the only output.
/// Returns `(stats, eval, peak_emit_bytes)` where the peak is the
/// high-water mark of the window store's buffers (the emission path's
/// whole retained footprint, bounded by the largest window of
/// [`ROOT_WINDOW`] root subtrees rather than the document).
///
/// Same caller contract as [`run_full_publish`]. Windows run sequentially
/// — bytes leave in document order, so there is nothing to parallelize
/// ahead of the writer — and no provenance is recorded.
pub(crate) fn run_stream_publish(
    tree: &SchemaTree,
    plans: &HashMap<PlanKey, PlanEntry>,
    cfg: &PublishConfig,
    db: &Database,
    stats: PublishStats,
    sink: &mut dyn XmlSink,
) -> Result<(PublishStats, EvalStats, usize)> {
    Run { tree, plans, cfg }.stream(db, stats, sink)
}

impl Run<'_> {
    /// Root pass (always sequential): evaluates root-level guards and tag
    /// queries once each and lists the root element instances, in
    /// document order. Callers cut that list into windows of
    /// [`ROOT_WINDOW`]; the decomposition — and therefore every per-window
    /// counter — is independent of the thread count *and* of the drain
    /// the windows later go through.
    fn root_pass(&self, shared: &Shared<'_>) -> Result<(PublishStats, EvalStats, Vec<Root>)> {
        let mut stats = PublishStats::default();
        let mut eval = EvalStats::default();
        let mut roots: Vec<Root> = Vec::new();
        for &child in self.tree.children(self.tree.root()) {
            let node = self.tree.node(child).expect("non-root id");
            if let Some(guard) = &node.guard {
                stats.queries_run += 1;
                let probe = guard_probe(guard);
                let rel =
                    run_root_query(shared, child, Role::Guard, &probe, &mut stats, &mut eval)?;
                if rel.is_empty() {
                    continue;
                }
            }
            match &node.query {
                Some(q) if node.context_tuple_of.is_none() => {
                    let rel = run_root_query(shared, child, Role::Tag, q, &mut stats, &mut eval)?;
                    stats.queries_run += 1;
                    stats.tuples_fetched += rel.len();
                    roots.extend((0..rel.len()).map(|i| Root {
                        vid: child,
                        tuple: Some(rel.tuple(i)),
                    }));
                }
                _ => roots.push(Root {
                    vid: child,
                    tuple: None,
                }),
            }
        }
        Ok((stats, eval, roots))
    }

    /// Evaluates the schema tree against `db`, producing `v(I)` plus
    /// statistics: each finished window is drained straight into the
    /// output document, recording the trace and the splice index on the
    /// way when they are requested.
    fn full(&self, db: &Database, mut stats: PublishStats) -> Result<Published> {
        let (tracing, incremental) = (self.cfg.tracing, self.cfg.incremental);
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            provenance: tracing || incremental,
        };
        let (root_stats, mut eval, roots) = self.root_pass(&shared)?;
        stats.absorb(&root_stats);

        let mut document = Document::new();
        let doc_root = document.root();
        let mut trace = tracing.then(TraceRec::new);
        let mut splice = incremental.then(HashMap::new);
        let (window_stats, window_eval) =
            run_windows(&shared, &roots, self.cfg.parallel, |skel| {
                skel.copy_into(
                    SKEL_ROOT,
                    &mut document,
                    doc_root,
                    splice.as_mut(),
                    trace.as_mut(),
                );
                Ok(())
            })?;
        stats.absorb(&window_stats);
        eval.absorb(&window_eval);
        Ok(Published {
            document,
            stats,
            eval,
            trace: trace.map(|t| PublishTrace { entries: t.entries }),
            splice: splice.map(|entries| SpliceIndex { entries }),
            reexecuted: Vec::new(),
        })
    }

    /// Streams `v(I)` into `sink` with no output DOM: the same root pass,
    /// windows and walk as [`Run::full`], each window serialized out
    /// (document-order DFS) as soon as its waves are exhausted. Byte
    /// output equals `full(..).document.to_xml()` through the same
    /// [`XmlSink`]; stats and eval counters are equal too.
    fn stream(
        &self,
        db: &Database,
        mut stats: PublishStats,
        sink: &mut dyn XmlSink,
    ) -> Result<(PublishStats, EvalStats, usize)> {
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            provenance: false,
        };
        let (root_stats, mut eval, roots) = self.root_pass(&shared)?;
        stats.absorb(&root_stats);
        let mut peak = 0usize;
        let (window_stats, window_eval) = run_windows(&shared, &roots, 1, |skel| {
            peak = peak.max(skel.heap_bytes());
            skel.emit(sink)?;
            Ok(())
        })?;
        stats.absorb(&window_stats);
        eval.absorb(&window_eval);
        Ok((stats, eval, peak))
    }

    /// Incrementally republishes after a base-table mutation: maps `delta`
    /// through the conservative table → view-node dependency map
    /// ([`crate::TableDeps`]), re-executes only the *top-most* affected
    /// view nodes — level-at-a-time, one batch per (view node, wave)
    /// across every parent instance the delta can reach, or across all of
    /// them where the key lineage cannot tell — and grafts the fresh
    /// subtrees into a copy of `prev`'s document in place of the stale
    /// ones. See [`crate::Session::republish_delta`] for the full contract.
    fn delta(
        &self,
        db: &Database,
        lineage: &Lineage,
        prev: &Published,
        delta: &xvc_rel::Delta,
        mut stats: PublishStats,
    ) -> Result<Published> {
        let prev_splice = prev.splice.as_ref().expect("caller checked prev.splice");
        stats.delta_rows_in = delta.row_count();

        let tree = self.tree;
        let affected = lineage.deps.affected_by(&delta.tables_changed());
        if affected.is_empty() {
            return Ok(Published {
                document: prev.document.clone(),
                stats,
                eval: EvalStats::default(),
                trace: None,
                splice: Some(prev_splice.clone()),
                reexecuted: Vec::new(),
            });
        }

        // Top-most affected nodes: re-executing a node re-executes its
        // whole subtree, so an affected node with an affected proper
        // ancestor is already covered. A non-root top carries the key
        // filter of the parents it is seeded under (`None`: all of them).
        let mut tops_by_parent: HashMap<usize, Vec<(ViewNodeId, Option<KeyFilter>)>> =
            HashMap::new();
        let mut root_tops: Vec<ViewNodeId> = Vec::new();
        for vid in tree.node_ids() {
            if !affected.contains(&vid.index()) {
                continue;
            }
            let mut anc = tree.parent(vid);
            let mut covered = false;
            while let Some(a) = anc {
                if tree.is_root(a) {
                    break;
                }
                if affected.contains(&a.index()) {
                    covered = true;
                    break;
                }
                anc = tree.parent(a);
            }
            if covered {
                continue;
            }
            let parent = tree.parent(vid).expect("node_ids excludes the root");
            if tree.is_root(parent) {
                root_tops.push(vid);
            } else {
                let filter = lineage.key_filter(tree, vid, delta, db);
                tops_by_parent
                    .entry(parent.index())
                    .or_default()
                    .push((vid, filter));
            }
        }

        // Re-execute every (reached parent instance, top node) pair in
        // one shared frontier: each pair grows under its own holder
        // element, and the wave loop batches per (view node, wave) across
        // all holders at once.
        let shared = Shared {
            tree,
            db,
            plans: self.plans,
            provenance: true,
        };
        let mut w = BatchWorker::new(&shared);
        w.skel.begin_window();
        let mut patches: HashMap<NodeId, Vec<(ViewNodeId, u32)>> = HashMap::new();
        let mut frontier: Vec<Pending> = Vec::new();
        let mut seed =
            |w: &mut BatchWorker<'_>, prev_parent: NodeId, vid: ViewNodeId, env: Arc<ParamEnv>| {
                let holder = w.skel.create_element("delta-holder");
                w.skel.append_child(SKEL_ROOT, holder);
                patches.entry(prev_parent).or_default().push((vid, holder));
                frontier.push(Pending {
                    parent: holder,
                    vid,
                    env,
                });
            };
        let root_env = Arc::new(ParamEnv::new());
        for &n in &root_tops {
            seed(&mut w, prev.document.root(), n, Arc::clone(&root_env));
        }
        if !tops_by_parent.is_empty() {
            for pid in prev.document.descendants_or_self(prev.document.root()) {
                let Some(entry) = prev_splice.entries.get(&pid) else {
                    continue;
                };
                let Some(tops) = tops_by_parent.get(&entry.view.index()) else {
                    continue;
                };
                let env = entry
                    .child_env
                    .as_ref()
                    .expect("an element with child view nodes records their environment");
                for (n, filter) in tops {
                    if filter.as_ref().is_none_or(|f| f.reaches(env)) {
                        seed(&mut w, pid, *n, Arc::clone(env));
                    }
                }
            }
        }
        w.expand(frontier)?;

        // Splice: rebuild the document (the arena has no detach), copying
        // unaffected subtrees from `prev` and grafting each holder's fresh
        // subtrees from the window store at the stale group's position.
        for list in patches.values_mut() {
            list.sort_by_key(|(vid, _)| vid.index());
        }
        let mut graft = Graft {
            old: &prev.document,
            old_splice: &prev_splice.entries,
            patches: &patches,
            fresh: &w.skel,
            new_doc: Document::new(),
            entries: HashMap::new(),
            respliced: 0,
        };
        let new_root = graft.new_doc.root();
        graft.copy_children(prev.document.root(), new_root);

        stats.absorb(&w.stats);
        stats.batches_reexecuted = w.stats.batches_executed;
        stats.nodes_respliced = graft.respliced;
        Ok(Published {
            document: graft.new_doc,
            stats,
            eval: w.eval,
            trace: None,
            splice: Some(SpliceIndex {
                entries: graft.entries,
            }),
            reexecuted: w.touched.iter().map(|&i| ViewNodeId(i as u32)).collect(),
        })
    }
}

/// The `SELECT 1 WHERE guard` probe the publisher evaluates for emission
/// guards.
pub(crate) fn guard_probe(guard: &ScalarExpr) -> SelectQuery {
    let mut probe = SelectQuery::new(vec![SelectItem::expr(ScalarExpr::int(1))], vec![]);
    probe.where_clause = Some(guard.clone());
    probe
}

/// Read-only state shared by every window.
struct Shared<'a> {
    tree: &'a SchemaTree,
    db: &'a Database,
    plans: &'a HashMap<PlanKey, PlanEntry>,
    /// Record each element's view node and environments in the window
    /// store (traced and splice-collecting runs).
    provenance: bool,
}

/// One root-level element instance to publish: a query-node tuple, or a
/// literal / context-copy element. Consecutive instances form the windows
/// of [`ROOT_WINDOW`] a publish is cut into.
struct Root {
    vid: ViewNodeId,
    tuple: Option<NamedTuple>,
}

/// Runs a root-level guard or tag query, once and without bindings:
/// through its prepared plan, else the interpreter. Each root query runs
/// once per publish, so its memo lookup is always a miss and nothing is
/// worth batching.
fn run_root_query(
    shared: &Shared<'_>,
    vid: ViewNodeId,
    role: Role,
    q: &SelectQuery,
    stats: &mut PublishStats,
    eval: &mut EvalStats,
) -> Result<Relation> {
    let env = ParamEnv::new();
    if let Some(PlanEntry::Ready(plan)) = shared.plans.get(&(vid.index() as u32, role)) {
        let rel = plan.execute_stats(shared.db, &env, eval)?;
        // A plan with binding slots has no memo key under no bindings.
        if plan.slots().is_empty() {
            stats.memo_misses += 1;
        }
        return Ok(rel);
    }
    Ok(eval_query_stats(
        shared.db,
        q,
        &env,
        EvalOptions::default(),
        eval,
    )?)
}

/// Cuts `roots` into windows of [`ROOT_WINDOW`], expands each into a
/// [`Skeleton`] — inline when `parallel <= 1`, else on a scoped thread
/// pool that hands out whole windows — and passes every finished skeleton
/// to `drain` in window (= document) order. Returns the windows' summed
/// counters.
fn run_windows(
    shared: &Shared<'_>,
    roots: &[Root],
    parallel: usize,
    mut drain: impl FnMut(&Skeleton) -> Result<()>,
) -> Result<(PublishStats, EvalStats)> {
    let windows: Vec<&[Root]> = roots.chunks(ROOT_WINDOW).collect();
    let n = parallel.clamp(1, windows.len().max(1));
    if n <= 1 {
        let mut w = BatchWorker::new(shared);
        for window in windows {
            w.run_window(window)?;
            drain(&w.skel)?;
        }
        return Ok((w.stats, w.eval));
    }
    let slots: Vec<Mutex<Option<Result<Skeleton>>>> =
        windows.iter().map(|_| Mutex::new(None)).collect();
    let totals = Mutex::new((PublishStats::default(), EvalStats::default()));
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| {
                let mut w = BatchWorker::new(shared);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(window) = windows.get(i) else { break };
                    let out = w.run_window(window).map(|()| std::mem::take(&mut w.skel));
                    *slots[i].lock().expect("window slot") = Some(out);
                }
                let mut t = totals.lock().expect("window totals");
                t.0.absorb(&w.stats);
                t.1.absorb(&w.eval);
            });
        }
    });
    for slot in slots {
        let skel = slot
            .into_inner()
            .expect("window slot")
            .expect("every window slot is filled")?;
        drain(&skel)?;
    }
    Ok(totals.into_inner().expect("window totals"))
}

/// Queues every child view node of the element `el` (an instance of
/// `vid`) for the next wave, all sharing the element's child bindings.
fn push_children(
    next: &mut Vec<Pending>,
    tree: &SchemaTree,
    vid: ViewNodeId,
    el: u32,
    env: &Arc<ParamEnv>,
) {
    for &c in tree.children(vid) {
        next.push(Pending {
            parent: el,
            vid: c,
            env: Arc::clone(env),
        });
    }
}

/// Rebuilds the previous document with fresh subtrees grafted in. The
/// arena [`Document`] has no node removal, so splicing is a copy walk:
/// unaffected nodes are copied verbatim from the old document; at a
/// patched parent, each stale child group (all instances of one view
/// node) is replaced by the matching holder's subtrees from the delta
/// run's window store, at the stale group's sibling position.
struct Graft<'g> {
    old: &'g Document,
    old_splice: &'g HashMap<NodeId, SpliceEntry>,
    /// Old parent node → `(child view node, holder)` replacements, sorted
    /// by ascending view-node index (sibling groups appear in that order).
    patches: &'g HashMap<NodeId, Vec<(ViewNodeId, u32)>>,
    fresh: &'g Skeleton,
    new_doc: Document,
    /// Splice index of the rebuilt document, filled during the walk.
    entries: HashMap<NodeId, SpliceEntry>,
    respliced: usize,
}

impl Graft<'_> {
    /// Copies `old_parent`'s children under `new_parent`, applying this
    /// parent's patch list (if any) as a positional merge: a fresh group
    /// replaces the first stale instance of its view node in place; a
    /// group with no stale instances is inserted before the first sibling
    /// of a higher view-node index (sibling groups are emitted in
    /// ascending index order, so this is the position a full republish
    /// would produce).
    fn copy_children(&mut self, old_parent: NodeId, new_parent: NodeId) {
        let patch = self.patches.get(&old_parent).map_or(&[][..], Vec::as_slice);
        let mut pi = 0;
        for &c in self.old.children(old_parent) {
            let cv = self.old_splice.get(&c).map(|e| e.view.index());
            if let Some(cv) = cv {
                while pi < patch.len() && patch[pi].0.index() <= cv {
                    self.graft_holder(patch[pi].1, new_parent);
                    pi += 1;
                }
                if patch.iter().any(|(vid, _)| vid.index() == cv) {
                    continue;
                }
            }
            self.copy_old_subtree(c, new_parent);
        }
        while pi < patch.len() {
            self.graft_holder(patch[pi].1, new_parent);
            pi += 1;
        }
    }

    /// Appends every subtree under a delta holder at `new_parent`.
    fn graft_holder(&mut self, holder: u32, new_parent: NodeId) {
        self.respliced += self.fresh.copy_into(
            holder,
            &mut self.new_doc,
            new_parent,
            Some(&mut self.entries),
            None,
        );
    }

    /// Copies one old subtree, descending with patch awareness (a patched
    /// parent can sit arbitrarily deep below an unaffected ancestor).
    fn copy_old_subtree(&mut self, old_id: NodeId, new_parent: NodeId) {
        let new_id = match self.old.kind(old_id) {
            xvc_xml::NodeKind::Element { name, attrs } => {
                let el = self.new_doc.create_element(name.clone());
                for (k, v) in attrs {
                    self.new_doc
                        .set_attr(el, k.clone(), v.clone())
                        .expect("created as element");
                }
                el
            }
            xvc_xml::NodeKind::Text(t) => self.new_doc.create_text(t.clone()),
            xvc_xml::NodeKind::Root => unreachable!("roots are never copied"),
        };
        self.new_doc.append_child(new_parent, new_id);
        if let Some(e) = self.old_splice.get(&old_id) {
            self.entries.insert(new_id, e.clone());
        }
        self.copy_children(old_id, new_id);
    }
}

/// One frontier slot: a view node still to expand under the window-store
/// element `parent`, with the bindings accumulated on the path down to
/// it, shared with the slot's sibling view nodes under the same parent.
struct Pending {
    parent: u32,
    vid: ViewNodeId,
    env: Arc<ParamEnv>,
}

/// The synthetic window root of a [`Skeleton`] (its children are the
/// window's root elements, or the delta run's holders).
const SKEL_ROOT: u32 = 0;

/// Sentinel for "no node" in the skeleton's intrusive child lists.
const SKEL_NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct SkelNode {
    /// Interned tag name.
    tag: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    /// This element's attributes are `attrs[attr_start..attr_start + attr_len]`
    /// (contiguous: the wave loop sets every attribute of an element
    /// before creating the next one).
    attr_start: u32,
    attr_len: u32,
}

#[derive(Debug, Clone, Copy)]
struct SkelAttr {
    /// Interned attribute name.
    name: u32,
    /// Value bytes are `text[val_start..val_start + val_len]`.
    val_start: u32,
    val_len: u32,
}

/// What a traced or splice-collecting walk remembers about one element.
#[derive(Debug, Clone)]
struct Prov {
    view: ViewNodeId,
    /// The environment the element's tag query (or guard) ran under.
    env: Arc<ParamEnv>,
    /// See [`SpliceEntry::child_env`].
    child_env: Option<Arc<ParamEnv>>,
}

/// The per-window element store of the publish walk: just enough
/// structure to drain one window's root-level subtrees in document order
/// after its breadth-first waves complete. Tag and attribute names are
/// interned (a schema tree has a handful of distinct names, reused across
/// every window); attribute values share one text buffer; child lists are
/// intrusive `u32` links. [`Skeleton::begin_window`] drains everything but
/// keeps the capacity and the name table, so steady-state publishing
/// allocates almost nothing and peak emission memory is bounded by the
/// largest window of [`ROOT_WINDOW`] root subtrees, not the document.
#[derive(Debug, Default)]
struct Skeleton {
    /// Interned tag / attribute names (kept across windows).
    names: Vec<String>,
    name_ids: HashMap<String, u32>,
    nodes: Vec<SkelNode>,
    attrs: Vec<SkelAttr>,
    /// Attribute values, concatenated. Replaced values leak their old
    /// bytes until the next `begin_window` — duplicate attribute names
    /// are rare and windows are short-lived.
    text: String,
    /// Per-node provenance, indexed like `nodes`; filled only on runs
    /// that record it (`None` for the window root and delta holders).
    prov: Vec<Option<Prov>>,
}

impl Skeleton {
    /// Clears per-window state (keeping buffer capacity and interned
    /// names) and re-creates the synthetic window root.
    fn begin_window(&mut self) {
        self.nodes.clear();
        self.attrs.clear();
        self.text.clear();
        self.prov.clear();
        self.nodes.push(SkelNode {
            tag: SKEL_NONE,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: 0,
            attr_len: 0,
        });
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("name table fits u32");
        self.names.push(name.to_owned());
        self.name_ids.insert(name.to_owned(), id);
        id
    }

    /// Heap bytes currently retained by the window buffers (capacities, not
    /// lengths — this is what the process actually holds on to).
    fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<SkelNode>()
            + self.attrs.capacity() * std::mem::size_of::<SkelAttr>()
            + self.text.capacity()
            + self.prov.capacity() * std::mem::size_of::<Option<Prov>>()
            + self.names.iter().map(String::capacity).sum::<usize>()
    }

    /// Creates a detached element named `tag`.
    fn create_element(&mut self, tag: &str) -> u32 {
        let tag = self.intern(tag);
        let id = u32::try_from(self.nodes.len()).expect("window fits u32 nodes");
        self.nodes.push(SkelNode {
            tag,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: u32::try_from(self.attrs.len()).expect("attrs fit u32"),
            attr_len: 0,
        });
        id
    }

    /// Appends a freshly created element as `parent`'s last child.
    fn append_child(&mut self, parent: u32, child: u32) {
        let p = parent as usize;
        if self.nodes[p].first_child == SKEL_NONE {
            self.nodes[p].first_child = child;
        } else {
            let last = self.nodes[p].last_child as usize;
            self.nodes[last].next_sibling = child;
        }
        self.nodes[p].last_child = child;
    }

    /// Sets an attribute; a duplicate name replaces the existing value
    /// **in place**, as [`Document::set_attr`] does (load-bearing for
    /// byte parity with the reference walk).
    fn set_attr(&mut self, el: u32, name: &str, value: &str) {
        let name = self.intern(name);
        let val_start = u32::try_from(self.text.len()).expect("values fit u32");
        self.text.push_str(value);
        let val_len = u32::try_from(value.len()).expect("value fits u32");
        let e = el as usize;
        let (start, len) = (
            self.nodes[e].attr_start as usize,
            self.nodes[e].attr_len as usize,
        );
        if let Some(a) = self.attrs[start..start + len]
            .iter_mut()
            .find(|a| a.name == name)
        {
            a.val_start = val_start;
            a.val_len = val_len;
            return;
        }
        debug_assert_eq!(
            start + len,
            self.attrs.len(),
            "attributes of an element are set before the next element is created"
        );
        self.attrs.push(SkelAttr {
            name,
            val_start,
            val_len,
        });
        self.nodes[e].attr_len += 1;
    }

    fn set_prov(&mut self, el: u32, prov: Prov) {
        let e = el as usize;
        if self.prov.len() <= e {
            self.prov.resize(e + 1, None);
        }
        self.prov[e] = Some(prov);
    }

    fn tag(&self, el: u32) -> &str {
        &self.names[self.nodes[el as usize].tag as usize]
    }

    /// `(name, value)` of each attribute of `el`, in order.
    fn attrs(&self, el: u32) -> impl Iterator<Item = (&str, &str)> {
        let n = self.nodes[el as usize];
        self.attrs[n.attr_start as usize..(n.attr_start + n.attr_len) as usize]
            .iter()
            .map(|a| {
                (
                    self.names[a.name as usize].as_str(),
                    &self.text[a.val_start as usize..(a.val_start + a.val_len) as usize],
                )
            })
    }

    /// Walks the subtrees under `from` (its descendants, not `from`
    /// itself) in document order: `f(el, true)` on entering an element,
    /// `f(el, false)` on leaving it. Iterative, so recursion-heavy views
    /// cannot overflow the stack here.
    fn walk<E>(
        &self,
        from: u32,
        mut f: impl FnMut(u32, bool) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let mut stack: Vec<u32> = Vec::new();
        let mut cur = self.nodes[from as usize].first_child;
        loop {
            while cur != SKEL_NONE {
                f(cur, true)?;
                stack.push(cur);
                cur = self.nodes[cur as usize].first_child;
            }
            loop {
                let Some(top) = stack.pop() else {
                    return Ok(());
                };
                f(top, false)?;
                let next = self.nodes[top as usize].next_sibling;
                if next != SKEL_NONE {
                    cur = next;
                    break;
                }
            }
        }
    }

    /// Serializes the window's subtrees into `sink` in document order.
    fn emit(&self, sink: &mut dyn XmlSink) -> io::Result<()> {
        self.walk(SKEL_ROOT, |el, open| {
            if !open {
                return sink.end_element(self.tag(el));
            }
            sink.start_element(self.tag(el))?;
            for (name, value) in self.attrs(el) {
                sink.attr(name, value)?;
            }
            Ok(())
        })
    }

    /// Appends the subtrees under `from` to `parent`'s children in `doc`,
    /// recording each element's splice entry into `splice` and its trace
    /// entry into `trace` when those are given (the provenance must have
    /// been recorded). Returns the number of subtrees appended.
    fn copy_into(
        &self,
        from: u32,
        doc: &mut Document,
        parent: NodeId,
        mut splice: Option<&mut HashMap<NodeId, SpliceEntry>>,
        mut trace: Option<&mut TraceRec>,
    ) -> usize {
        let mut open_els = vec![parent];
        let mut top_level = 0;
        let done: std::result::Result<(), std::convert::Infallible> =
            self.walk(from, |el, open| {
                if !open {
                    open_els.pop();
                    if let Some(t) = trace.as_deref_mut() {
                        t.close();
                    }
                    return Ok(());
                }
                let tag = self.tag(el);
                let node = doc.create_element(tag);
                for (name, value) in self.attrs(el) {
                    doc.set_attr(node, name, value).expect("created as element");
                }
                let up = *open_els.last().expect("parent stays open");
                doc.append_child(up, node);
                if up == parent {
                    top_level += 1;
                }
                open_els.push(node);
                let prov = self.prov.get(el as usize).and_then(Option::as_ref);
                if let Some(t) = trace.as_deref_mut() {
                    t.open(tag, prov.map(|p| (p.view, &*p.env)));
                }
                if let (Some(s), Some(p)) = (splice.as_deref_mut(), prov) {
                    s.insert(
                        node,
                        SpliceEntry {
                            view: p.view,
                            child_env: p.child_env.clone(),
                        },
                    );
                }
                Ok(())
            });
        if let Err(never) = done {
            match never {}
        }
        top_level
    }
}

/// Indexed-path bookkeeping of a traced publish. `counts[0]` holds the
/// root-level same-tag sibling counts and lives across windows, which are
/// recorded in document order.
#[derive(Debug)]
pub(crate) struct TraceRec {
    pub(crate) entries: Vec<TraceEntry>,
    /// Indexed path segments of currently open elements.
    path: Vec<String>,
    /// Per open level: same-tag sibling counts emitted so far.
    counts: Vec<HashMap<String, usize>>,
}

impl TraceRec {
    pub(crate) fn new() -> Self {
        TraceRec {
            entries: Vec::new(),
            path: Vec::new(),
            counts: vec![HashMap::new()],
        }
    }

    /// Enters an element named `tag`, recording an entry for it when its
    /// provenance `(view node, environment)` is known.
    pub(crate) fn open(&mut self, tag: &str, prov: Option<(ViewNodeId, &ParamEnv)>) {
        let level = self.counts.last_mut().expect("counts is never empty");
        let n = level.entry(tag.to_owned()).or_insert(0);
        *n += 1;
        self.path.push(format!("{tag}[{n}]"));
        self.counts.push(HashMap::new());
        if let Some((view, env)) = prov {
            self.entries.push(TraceEntry {
                path: format!("/{}", self.path.join("/")),
                view,
                env: env.clone(),
            });
        }
    }

    /// Leaves the innermost open element.
    pub(crate) fn close(&mut self) {
        self.path.pop();
        self.counts.pop();
    }
}

/// Per-window state of the breadth-first walk: the window store, private
/// counters and the window-scoped result memo. One worker serves many
/// windows in turn ([`BatchWorker::run_window`] resets the per-window
/// state), or one delta run.
struct BatchWorker<'a> {
    shared: &'a Shared<'a>,
    skel: Skeleton,
    stats: PublishStats,
    eval: EvalStats,
    /// [`memo_key`] → relation, scoped to one window and capped at
    /// [`MEMO_CAP`]. Relations are shared with the batch output slots,
    /// not copied.
    memo: HashMap<String, Rc<Relation>>,
    /// View nodes whose guard / tag batches this worker issued (delta-path
    /// soundness bookkeeping; node arena indexes).
    touched: BTreeSet<usize>,
}

impl<'a> BatchWorker<'a> {
    fn new(shared: &'a Shared<'a>) -> Self {
        BatchWorker {
            shared,
            skel: Skeleton::default(),
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            memo: HashMap::new(),
            touched: BTreeSet::new(),
        }
    }

    /// Publishes one window breadth-first into a fresh skeleton: wave 0 is
    /// the window's root elements, and the frontier holds every `(parent
    /// element, view node, bindings)` still to expand at the current
    /// depth. The memo is window-scoped, so statistics cannot depend on
    /// how windows are spread over threads.
    fn run_window(&mut self, window: &[Root]) -> Result<()> {
        self.skel.begin_window();
        self.memo.clear();
        let env = Arc::new(ParamEnv::new());
        let mut frontier = Vec::new();
        for r in window {
            let row = r.tuple.as_ref().map(|t| (&t.columns[..], &t.values[..]));
            let (el, child_env) = self.emit_node_instance(SKEL_ROOT, r.vid, &env, row);
            push_children(&mut frontier, self.shared.tree, r.vid, el, &child_env);
        }
        self.expand(frontier)
    }

    /// Expands `frontier` breadth-first to exhaustion. Each (view node,
    /// wave) pair runs **one** set-oriented tag-query / guard execution
    /// for all its parents, with the rows regrouped back to their parent
    /// elements afterwards. Document order is preserved because a parent's
    /// pending view nodes are expanded in schema order (ascending node id)
    /// and each batch returns per-binding rows in the reference walk's row
    /// order. Windows and the delta run seed it alike.
    fn expand(&mut self, mut frontier: Vec<Pending>) -> Result<()> {
        let tree = self.shared.tree;
        while !frontier.is_empty() {
            let mut next: Vec<Pending> = Vec::new();
            // Group the level by view node, in schema (ascending id) order:
            // every parent sees its children appended in schema order, and
            // each group becomes at most one guard batch + one tag batch.
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for (i, p) in frontier.iter().enumerate() {
                groups.entry(p.vid.index()).or_default().push(i);
            }
            for (_, mut live) in groups {
                let vid = frontier[live[0]].vid;
                let node = tree.node(vid).expect("frontier holds non-root ids");

                if let Some(guard) = &node.guard {
                    self.touched.insert(vid.index());
                    let probe = guard_probe(guard);
                    let envs: Vec<&ParamEnv> = live.iter().map(|&i| &*frontier[i].env).collect();
                    self.stats.queries_run += envs.len();
                    let rels = self.run_batch(vid, Role::Guard, &probe, &envs)?;
                    live = live
                        .iter()
                        .zip(&rels)
                        .filter(|(_, r)| !r.is_empty())
                        .map(|(&i, _)| i)
                        .collect();
                }

                if node.context_tuple_of.is_some() || node.query.is_none() {
                    for &i in &live {
                        let p = &frontier[i];
                        let (el, child_env) = self.emit_node_instance(p.parent, vid, &p.env, None);
                        push_children(&mut next, tree, vid, el, &child_env);
                    }
                    continue;
                }

                self.touched.insert(vid.index());
                let query = node.query.as_ref().expect("query node");
                let envs: Vec<&ParamEnv> = live.iter().map(|&i| &*frontier[i].env).collect();
                let rels = self.run_batch(vid, Role::Tag, query, &envs)?;
                for (&i, rel) in live.iter().zip(&rels) {
                    let p = &frontier[i];
                    self.stats.queries_run += 1;
                    self.stats.tuples_fetched += rel.len();
                    for row in &rel.rows {
                        let (el, child_env) = self.emit_node_instance(
                            p.parent,
                            vid,
                            &p.env,
                            Some((&rel.columns, row)),
                        );
                        push_children(&mut next, tree, vid, el, &child_env);
                    }
                }
            }
            frontier = next;
        }
        Ok(())
    }

    /// Creates one element instance under `parent` — tag, static and
    /// projected attributes of its tuple row (`(columns, values)`),
    /// counters, provenance — and returns it with the environment its
    /// children run under. A node with no children builds no child
    /// environment and hands back `env`.
    fn emit_node_instance(
        &mut self,
        parent: u32,
        vid: ViewNodeId,
        env: &Arc<ParamEnv>,
        row: Option<(&[String], &[xvc_rel::Value])>,
    ) -> (u32, Arc<ParamEnv>) {
        let tree = self.shared.tree;
        let node = tree.node(vid).expect("non-root id");
        let el = self.skel.create_element(&node.tag);
        self.skel.append_child(parent, el);
        self.stats.elements += 1;
        for (k, v) in &node.static_attrs {
            self.skel.set_attr(el, k, v);
            self.stats.attributes += 1;
        }
        let needs_env = !tree.children(vid).is_empty();
        let mut child_env = Arc::clone(env);
        if let Some(var) = &node.context_tuple_of {
            if let Some(t) = env.get(var) {
                self.set_tuple_attrs(el, &node.attrs, &t.columns, &t.values);
                if needs_env && !node.bv.is_empty() {
                    Arc::make_mut(&mut child_env).insert(node.bv.clone(), t.clone());
                }
            }
        } else if let Some((columns, values)) = row {
            self.set_tuple_attrs(el, &node.attrs, columns, values);
            if needs_env {
                let t = NamedTuple {
                    columns: columns.to_vec(),
                    values: values.to_vec(),
                };
                Arc::make_mut(&mut child_env).insert(node.bv.clone(), t);
            }
        }
        if self.shared.provenance {
            self.skel.set_prov(
                el,
                Prov {
                    view: vid,
                    env: Arc::clone(env),
                    child_env: needs_env.then(|| Arc::clone(&child_env)),
                },
            );
        }
        (el, child_env)
    }

    /// Sets a row's projected columns as attributes (see [`project_attrs`]).
    fn set_tuple_attrs(
        &mut self,
        el: u32,
        attrs: &AttrProjection,
        columns: &[String],
        values: &[xvc_rel::Value],
    ) {
        for (k, v) in project_attrs(attrs, columns, values) {
            self.skel.set_attr(el, k, &v.render());
            self.stats.attributes += 1;
        }
    }

    /// One relation per environment, in order: the set-oriented execution
    /// of a node's tag query or guard probe. The window-scoped memo is
    /// honored exactly as the reference walk's (hits, misses, cap-bounded
    /// inserts) by resolving every binding's memo key first and batching
    /// only the environments the reference would have sent to the engine.
    /// A node whose plan failed to prepare runs per environment through
    /// the interpreter, with no memo and no batch counters.
    fn run_batch(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        envs: &[&ParamEnv],
    ) -> Result<Vec<Rc<Relation>>> {
        if envs.is_empty() {
            return Ok(Vec::new());
        }
        let plan_key = (vid.index() as u32, role);
        let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&plan_key) else {
            let mut rels = Vec::with_capacity(envs.len());
            for &env in envs {
                let rel = eval_query_stats(
                    self.shared.db,
                    q,
                    env,
                    EvalOptions::default(),
                    &mut self.eval,
                )?;
                rels.push(Rc::new(rel));
            }
            return Ok(rels);
        };
        let mut out: Vec<Option<Rc<Relation>>> = vec![None; envs.len()];
        // env index → slot in `pending` whose result it shares.
        let mut share: Vec<usize> = vec![usize::MAX; envs.len()];
        let mut pending: Vec<&ParamEnv> = Vec::new();
        // memo key → (pending slot of its first execution, whether that
        // execution will be inserted into the memo).
        let mut in_flight: HashMap<String, (usize, bool)> = HashMap::new();
        let mut planned_inserts = 0usize;
        let mut key = String::new();
        for (i, &env) in envs.iter().enumerate() {
            // Unresolvable slots bypass the memo, exactly like the
            // reference walk (the execution itself reports the unbound
            // parameter, if the plan reaches it).
            if !memo_key(&mut key, plan_key, plan.slots(), env) {
                share[i] = pending.len();
                pending.push(env);
            } else if let Some(hit) = self.memo.get(&key) {
                self.stats.memo_hits += 1;
                out[i] = Some(Rc::clone(hit));
            } else if let Some(&(slot, will_insert)) = in_flight.get(&key) {
                // The reference would find the first execution's insert
                // (hit) — or, past the cap, miss and re-execute; the
                // engine work is shared either way, only the counter
                // differs.
                if will_insert {
                    self.stats.memo_hits += 1;
                } else {
                    self.stats.memo_misses += 1;
                }
                share[i] = slot;
            } else {
                self.stats.memo_misses += 1;
                let will_insert = self.memo.len() + planned_inserts < MEMO_CAP;
                if will_insert {
                    planned_inserts += 1;
                }
                in_flight.insert(key.clone(), (pending.len(), will_insert));
                share[i] = pending.len();
                pending.push(env);
            }
        }
        if !pending.is_empty() {
            let batch = plan.execute_batch_stats(self.shared.db, &pending, &mut self.eval)?;
            self.stats.batches_executed += 1;
            self.stats.bindings_per_batch_max =
                self.stats.bindings_per_batch_max.max(pending.len());
            self.stats.rows_regrouped += batch.total_rows();
            let rels: Vec<Rc<Relation>> = batch.into_relations().into_iter().map(Rc::new).collect();
            for (key, (slot, will_insert)) in in_flight {
                if will_insert {
                    self.memo.insert(key, Rc::clone(&rels[slot]));
                }
            }
            for (o, &slot) in out.iter_mut().zip(&share) {
                if o.is_none() {
                    *o = Some(Rc::clone(&rels[slot]));
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|r| r.expect("every env is memo-served or batched"))
            .collect())
    }
}

/// Writes into `key` the memo key for one execution: the plan's node and
/// role, then the rendered values of every binding slot the plan actually
/// reads. Returns `false` (memo bypass) when a slot cannot be resolved —
/// the execution then reports the unbound parameter itself. Callers reuse
/// one buffer across bindings and copy it only into memo entries.
pub(crate) fn memo_key(
    key: &mut String,
    (node, role): PlanKey,
    slots: &[(String, String)],
    env: &ParamEnv,
) -> bool {
    key.clear();
    let _ = write!(key, "{node}{role:?}\u{1f}");
    for (var, column) in slots {
        let Some(v) = env.get(var).and_then(|t| t.get(column)) else {
            return false;
        };
        let _ = write!(key, "{v:?}\u{1f}");
    }
    true
}

/// Projects tuple columns into attribute `(name, value)` pairs: NULLs
/// omitted, first occurrence wins on duplicate column names. Both the
/// publish walk and the reference walk emit through this, so their
/// attribute output cannot drift apart.
pub(crate) fn project_attrs<'c>(
    attrs: &'c AttrProjection,
    columns: &'c [String],
    values: &'c [xvc_rel::Value],
) -> impl Iterator<Item = (&'c str, &'c xvc_rel::Value)> + 'c {
    let emitted = |c: &String, v: &xvc_rel::Value| {
        !v.is_null()
            && match attrs {
                AttrProjection::All => true,
                AttrProjection::None => false,
                AttrProjection::Columns(cols) => cols.iter().any(|x| x == c),
            }
    };
    // A repeated name is dropped once an earlier column of that name was
    // emitted: a linear look back, as rows carry few columns.
    columns
        .iter()
        .zip(values)
        .enumerate()
        .filter(move |&(i, (c, v))| {
            emitted(c, v)
                && !columns[..i]
                    .iter()
                    .zip(values)
                    .any(|(c0, v0)| c0 == c && emitted(c0, v0))
        })
        .map(|(_, (c, v))| (c.as_str(), v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::reference::Reference;
    use crate::schema_tree::ViewNode;
    use xvc_rel::{parse_query, ColumnDef, ColumnType, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "metroarea",
                vec![
                    ColumnDef::new("metroid", ColumnType::Int),
                    ColumnDef::new("metroname", ColumnType::Str),
                ],
            )
            .unwrap(),
        );
        db.create_table(
            TableSchema::new(
                "hotel",
                vec![
                    ColumnDef::new("hotelid", ColumnType::Int),
                    ColumnDef::new("hotelname", ColumnType::Str),
                    ColumnDef::new("starrating", ColumnType::Int),
                    ColumnDef::new("metro_id", ColumnType::Int),
                ],
            )
            .unwrap(),
        );
        for (id, name) in [(1, "chicago"), (2, "nyc")] {
            db.insert("metroarea", vec![Value::Int(id), Value::Str(name.into())])
                .unwrap();
        }
        for (id, name, stars, metro) in [
            (10, "palmer", 5, 1),
            (11, "drake", 4, 1),
            (12, "plaza", 5, 2),
        ] {
            db.insert(
                "hotel",
                vec![
                    Value::Int(id),
                    Value::Str(name.into()),
                    Value::Int(stars),
                    Value::Int(metro),
                ],
            )
            .unwrap();
        }
        db
    }

    /// Metros in [`wide_db`]: three windows of [`ROOT_WINDOW`].
    const WIDE_METROS: usize = 20;

    /// [`db`] widened to [`WIDE_METROS`] metros, so a publish spans several
    /// windows (and `parallel(n)` runs them on threads). Each added metro
    /// has one 3-star hotel, which [`view`]'s `starrating > 4` drops.
    fn wide_db() -> Database {
        let mut db = db();
        for id in 3..=WIDE_METROS as i64 {
            db.insert(
                "metroarea",
                vec![Value::Int(id), Value::Str(format!("metro{id}"))],
            )
            .unwrap();
            db.insert(
                "hotel",
                vec![
                    Value::Int(100 + id),
                    Value::Str(format!("inn{id}")),
                    Value::Int(3),
                    Value::Int(id),
                ],
            )
            .unwrap();
        }
        db
    }

    fn view() -> SchemaTree {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        t.add_child(
            metro,
            ViewNode::new(
                3,
                "hotel",
                "h",
                parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid AND starrating > 4")
                    .unwrap(),
            ),
        )
        .unwrap();
        t
    }

    fn publish_one(tree: &SchemaTree, db: &Database) -> Result<Published> {
        Engine::new(tree).session().publish(db)
    }

    #[test]
    fn publishes_nested_elements() {
        let p = publish_one(&view(), &db()).unwrap();
        let xml = p.document.to_xml();
        assert_eq!(
            xml,
            "<metro metroid=\"1\" metroname=\"chicago\">\
             <hotel hotelid=\"10\" hotelname=\"palmer\" starrating=\"5\" metro_id=\"1\"/>\
             </metro>\
             <metro metroid=\"2\" metroname=\"nyc\">\
             <hotel hotelid=\"12\" hotelname=\"plaza\" starrating=\"5\" metro_id=\"2\"/>\
             </metro>"
        );
        assert_eq!(p.stats.elements, 4);
        // One metroarea query + one hotel query per metro tuple.
        assert_eq!(p.stats.queries_run, 3);
        assert_eq!(p.stats.tuples_fetched, 4);
        assert!(p.trace.is_none());
    }

    #[test]
    fn null_attributes_omitted() {
        let mut database = db();
        database
            .insert("metroarea", vec![Value::Int(3), Value::Null])
            .unwrap();
        let p = publish_one(&view(), &database).unwrap();
        assert!(p.document.to_xml().contains("<metro metroid=\"3\"/>"));
    }

    #[test]
    fn empty_result_publishes_nothing() {
        let mut t = SchemaTree::new();
        t.add_root_node(ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid FROM metroarea WHERE metroid > 99").unwrap(),
        ))
        .unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert!(p.document.is_empty());
        assert_eq!(p.stats.elements, 0);
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn publish_validates_first() {
        let mut t = SchemaTree::new();
        t.add_root_node(ViewNode::new(
            1,
            "x",
            "a",
            parse_query("SELECT * FROM hotel WHERE metro_id=$nope.metroid").unwrap(),
        ))
        .unwrap();
        assert!(matches!(
            publish_one(&t, &db()),
            Err(crate::Error::UnboundViewParameter { .. })
        ));
    }

    #[test]
    fn attr_projection_columns_filters_attributes() {
        let mut t = SchemaTree::new();
        let mut n = ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        );
        n.attrs = crate::AttrProjection::Columns(vec!["metroname".into()]);
        t.add_root_node(n).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        let xml = p.document.to_xml();
        assert!(xml.contains("<metro metroname=\"chicago\"/>"), "{xml}");
        assert!(!xml.contains("metroid"), "{xml}");
    }

    #[test]
    fn attr_projection_none_publishes_bare_elements() {
        let mut t = SchemaTree::new();
        let mut n = ViewNode::new(
            1,
            "metro",
            "m",
            parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
        );
        n.attrs = crate::AttrProjection::None;
        t.add_root_node(n).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(p.document.to_xml(), "<metro/><metro/>");
    }

    #[test]
    fn literal_nodes_emit_once_with_static_attrs() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut lit = ViewNode::literal(2, "badge");
        lit.static_attrs = vec![("kind".into(), "gold".into())];
        t.add_child(metro, lit).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(
            p.document.to_xml(),
            "<metro metroid=\"1\"><badge kind=\"gold\"/></metro>\
             <metro metroid=\"2\"><badge kind=\"gold\"/></metro>"
        );
    }

    #[test]
    fn context_copy_reuses_bound_tuple() {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let wrapper = t.add_child(metro, ViewNode::literal(2, "wrap")).unwrap();
        let mut copy = ViewNode::literal(3, "metro_copy");
        copy.context_tuple_of = Some("m".into());
        copy.attrs = crate::AttrProjection::All;
        t.add_child(wrapper, copy).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        let xml = p.document.to_xml();
        assert!(
            xml.contains("<wrap><metro_copy metroid=\"1\" metroname=\"chicago\"/></wrap>"),
            "{xml}"
        );
        // One query (metroarea) — the copies run none.
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn guards_gate_subtrees() {
        use xvc_rel::BinOp;
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut guarded = ViewNode::literal(2, "only_chicago");
        guarded.guard = Some(ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::param("m", "metroname"),
            ScalarExpr::str("chicago"),
        ));
        t.add_child(metro, guarded).unwrap();
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(
            p.document.to_xml(),
            "<metro metroid=\"1\" metroname=\"chicago\"><only_chicago/></metro>\
             <metro metroid=\"2\" metroname=\"nyc\"/>"
        );
    }

    #[test]
    fn trace_records_indexed_paths_and_envs() {
        let p = Engine::new(&view())
            .traced(true)
            .session()
            .publish(&db())
            .unwrap();
        let trace = p.trace.expect("traced publish");
        assert_eq!(trace.entries.len(), 4); // 2 metros + 1 hotel each
        let paths: Vec<&str> = trace.entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "/metro[1]",
                "/metro[1]/hotel[1]",
                "/metro[2]",
                "/metro[2]/hotel[1]"
            ]
        );
        // The hotel under the second metro ran with $m bound to nyc.
        let entry = trace.lookup("/metro[2]/hotel[1]").unwrap();
        let m = entry.env.get("m").unwrap();
        assert_eq!(m.get("metroname"), Some(&Value::Str("nyc".into())));
        // deepest_ancestor finds the emitted parent of a missing child.
        let anc = trace
            .deepest_ancestor("/metro[2]/hotel[1]/room[1]")
            .unwrap();
        assert_eq!(anc.path, "/metro[2]/hotel[1]");
        assert!(!p.document.is_empty());
    }

    #[test]
    fn publish_with_stats_reports_engine_work() {
        let p = publish_one(&view(), &db()).unwrap();
        assert_eq!(p.stats.queries_run, 3);
        // metroarea scan (2 rows) + one hotel scan (3 rows) shared by both
        // metros: they fall in one window, so their hotel bindings form
        // one batch, serving two $m bindings.
        assert_eq!(p.eval.queries, 2);
        assert_eq!(p.eval.param_queries, 2);
        assert_eq!(p.eval.rows_scanned, 2 + 3);
    }

    #[test]
    fn leaf_queries_not_run_for_absent_parents() {
        // Child tag queries run once per parent tuple — zero parent tuples
        // means the child query never runs.
        let mut t = view();
        let metro = t.find_by_paper_id(1).unwrap();
        t.node_mut(metro).unwrap().query = Some(
            parse_query("SELECT metroid, metroname FROM metroarea WHERE metroid > 99").unwrap(),
        );
        let p = publish_one(&t, &db()).unwrap();
        assert_eq!(p.stats.queries_run, 1);
    }

    #[test]
    fn second_publish_hits_the_plan_cache() {
        let tree = view();
        let db = db();
        let engine = Engine::new(&tree);
        let first = engine.session().publish(&db).unwrap();
        assert_eq!(first.stats.plans_prepared, 2);
        assert_eq!(first.stats.plan_cache_hits, 0);
        let second = engine.session().publish(&db).unwrap();
        assert_eq!(second.stats.plans_prepared, 0);
        assert_eq!(second.stats.plan_cache_hits, 2);
        assert!(second.stats.plan_cache_hit_rate() > 0.99);
        assert_eq!(first.document.to_xml(), second.document.to_xml());
        // Engine work is identical on the warm path.
        assert_eq!(first.eval, second.eval);
    }

    #[test]
    fn failed_plan_is_negatively_cached() {
        use xvc_rel::BinOp;
        let mut t = view();
        // A root-level node whose tag query cannot compile (unknown
        // table), gated by a guard that never fires so the interpreter
        // fallback never runs either — the view still publishes.
        let mut bad = ViewNode::new(
            9,
            "phantom",
            "p",
            parse_query("SELECT * FROM no_such_table").unwrap(),
        );
        bad.guard = Some(ScalarExpr::binary(
            BinOp::Eq,
            ScalarExpr::int(1),
            ScalarExpr::int(2),
        ));
        t.add_root_node(bad).unwrap();
        let db = db();
        let engine = Engine::new(&t);

        let first = engine.session().publish(&db).unwrap();
        // metro + hotel tag queries and the guard probe compile; the
        // phantom tag query fails, exactly once.
        assert_eq!(first.stats.plans_prepared, 3);
        assert_eq!(first.stats.plan_prepare_failures, 1);
        assert_eq!(first.stats.plan_cache_hits, 0);
        assert!(!first.document.to_xml().contains("phantom"));

        let second = engine.session().publish(&db).unwrap();
        // The failure is served from the cache — no recompilation
        // attempt, and the hit rate is undistorted.
        assert_eq!(second.stats.plans_prepared, 0);
        assert_eq!(second.stats.plan_prepare_failures, 0);
        assert_eq!(second.stats.plan_cache_hits, 4);
        assert_eq!(second.stats.plan_cache_hit_rate(), 1.0);
        assert_eq!(first.document.to_xml(), second.document.to_xml());
    }

    #[test]
    fn index_creation_invalidates_plan_cache() {
        use xvc_rel::IndexKind;
        let t = view();
        let mut db = db();
        let engine = Engine::new(&t);
        let before = engine.session().publish(&db).unwrap();
        assert_eq!(before.stats.plans_prepared, 2);

        // An index changes the catalog fingerprint even though no table
        // was added: plans recompile (and may now pick an index access
        // path) while the document stays identical.
        db.create_index("hotel", "metro_id", IndexKind::Hash)
            .unwrap();
        let after = engine.session().publish(&db).unwrap();
        assert_eq!(after.stats.plans_prepared, 2);
        assert_eq!(after.stats.plan_cache_hits, 0);
        assert_eq!(before.document.to_xml(), after.document.to_xml());

        // And the fingerprint is stable afterwards: pure cache hits.
        let warm = engine.session().publish(&db).unwrap();
        assert_eq!(warm.stats.plan_cache_hits, 2);
        assert_eq!(warm.stats.plans_prepared, 0);
        assert_eq!(warm.document.to_xml(), after.document.to_xml());
    }

    #[test]
    fn interpreter_and_prepared_paths_agree() {
        let tree = view();
        let db = db();
        // Scalar prepared execution mirrors the interpreter exactly, down
        // to the engine counters; the batched path shares the document but
        // reports its own (smaller) engine work, so it is compared
        // separately in `batched_and_scalar_paths_agree`.
        let prepared = Reference::prepared(&tree).publish(&db).unwrap();
        let interpreted = Reference::interpreted(&tree).publish(&db).unwrap();
        assert_eq!(prepared.document.to_xml(), interpreted.document.to_xml());
        assert_eq!(prepared.eval, interpreted.eval);
        assert_eq!(interpreted.stats.plans_prepared, 0);
    }

    #[test]
    fn batched_and_scalar_paths_agree() {
        let tree = view();
        let db = db();
        let scalar = Reference::prepared(&tree)
            .traced(true)
            .publish(&db)
            .unwrap();
        let batched = Engine::new(&tree)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(batched.document.to_xml(), scalar.document.to_xml());
        let (bt, st) = (batched.trace.unwrap(), scalar.trace.unwrap());
        assert_eq!(bt.entries.len(), st.entries.len());
        for (b, s) in bt.entries.iter().zip(&st.entries) {
            assert_eq!(b.path, s.path);
            assert_eq!(b.view, s.view);
            assert_eq!(b.env, s.env);
        }
        assert_eq!(batched.stats.without_batch_counters(), scalar.stats);
        assert_eq!(scalar.stats.batches_executed, 0);
        // Both metros fall in one window: one batch for the hotel level.
        assert_eq!(batched.stats.batches_executed, 1);
        assert_eq!(batched.stats.rows_regrouped, 2);
    }

    #[test]
    fn batched_interpreter_matches_scalar_interpreter_exactly() {
        // The hotel node's EXISTS puts an aggregate in a WHERE clause,
        // which the plan compiler rejects; the interpreter never evaluates
        // it, as the OR's left side holds on every row. Without
        // a plan there is nothing to batch: the frontier walk degenerates
        // to per-parent interpretation and even the engine counters must
        // be identical to the reference walk's.
        let mut tree = SchemaTree::new();
        let metro = tree
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        tree.add_child(
            metro,
            ViewNode::new(
                3,
                "hotel",
                "h",
                parse_query(
                    "SELECT * FROM hotel WHERE metro_id = $m.metroid AND (starrating > 0 \
                     OR EXISTS (SELECT 1 FROM metroarea WHERE SUM(metroid) > 1))",
                )
                .unwrap(),
            ),
        )
        .unwrap();
        let db = wide_db();
        let batched = Engine::new(&tree)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(
            batched.stats.plan_prepare_failures, 1,
            "{:?}",
            batched.stats
        );
        assert_eq!(batched.stats.batches_executed, 0);
        assert!(batched.document.to_xml().contains("drake"));
        let scalar = Reference::prepared(&tree)
            .traced(true)
            .publish(&db)
            .unwrap();
        assert_eq!(batched.document.to_xml(), scalar.document.to_xml());
        assert_eq!(batched.eval, scalar.eval);
        assert_eq!(batched.stats, scalar.stats);
        let (bt, st) = (batched.trace.unwrap(), scalar.trace.unwrap());
        assert_eq!(bt.entries.len(), st.entries.len());
        for (b, s) in bt.entries.iter().zip(&st.entries) {
            assert_eq!((&b.path, b.view, &b.env), (&s.path, s.view, &s.env));
        }
        // And the pure interpreter agrees, engine counters included.
        let interpreted = Reference::interpreted(&tree).publish(&db).unwrap();
        assert_eq!(batched.document.to_xml(), interpreted.document.to_xml());
        assert_eq!(batched.eval, interpreted.eval);
    }

    #[test]
    fn bounded_path_demotes_single_binding_batches_to_scalar() {
        // Two root view nodes, each an implicit aggregate: both root
        // elements share one window, but each has one instance, so each
        // hotel batch provably carries one binding. Bound-driven planning
        // executes them scalar — one run with the slot pushdown intact —
        // instead of the binding-free shared pipeline, which materializes
        // the stripped rows and regroups them through a hash build per
        // batch.
        let mut tree = SchemaTree::new();
        for (id, var, hvar, agg) in [(1, "m", "h", "MIN"), (2, "n", "g", "MAX")] {
            let metro = tree
                .add_root_node(ViewNode::new(
                    id,
                    "metro",
                    var,
                    parse_query(&format!("SELECT {agg}(metroid) AS metroid FROM metroarea"))
                        .unwrap(),
                ))
                .unwrap();
            tree.add_child(
                metro,
                ViewNode::new(
                    id + 2,
                    "hotel",
                    hvar,
                    parse_query(&format!(
                        "SELECT * FROM hotel WHERE metro_id=${var}.metroid AND starrating > 4"
                    ))
                    .unwrap(),
                ),
            )
            .unwrap();
        }
        let db = db();
        let bounded = Engine::new(&tree)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        let scalar = Reference::prepared(&tree)
            .traced(true)
            .publish(&db)
            .unwrap();
        assert_eq!(bounded.document.to_xml(), scalar.document.to_xml());
        let (bt, st) = (bounded.trace.unwrap(), scalar.trace.unwrap());
        assert_eq!(bt.entries.len(), st.entries.len());
        for (b, s) in bt.entries.iter().zip(&st.entries) {
            assert_eq!(b.path, s.path);
            assert_eq!(b.env, s.env);
        }
        assert_eq!(bounded.stats.without_batch_counters(), scalar.stats);
        assert_eq!(bounded.stats.batches_executed, 2);
        assert_eq!(bounded.eval.hash_join_builds, 0, "{:?}", bounded.eval);

        // What the bound saves, at the plan level: each hotel batch rerun
        // under the one binding the publish gave it, once with the plan
        // the engine caches (bound baked in) and once without the bound.
        // Scans and query counts agree; the shared pipeline's regroup
        // hash builds (one per batch) are what the bound saves.
        let catalog = db.catalog();
        let bounds = crate::analyze_view_bounds(&tree, &catalog);
        let (mut with_bound, mut without) = (EvalStats::default(), EvalStats::default());
        for e in bt.entries.iter().filter(|e| e.path.contains("hotel")) {
            let node = tree.node(e.view).unwrap();
            let plan = xvc_rel::prepare(node.query.as_ref().unwrap(), &catalog).unwrap();
            let bound = bounds.batch_bound(e.view);
            assert!(bound.at_most_one(), "{bound:?}");
            let envs = [&e.env];
            let b = plan
                .clone()
                .with_binding_bound(bound)
                .execute_batch_stats(&db, &envs, &mut with_bound)
                .unwrap();
            let u = plan.execute_batch_stats(&db, &envs, &mut without).unwrap();
            assert_eq!(b.into_relations(), u.into_relations());
        }
        assert_eq!(with_bound.queries, without.queries);
        assert_eq!(with_bound.rows_scanned, without.rows_scanned);
        assert_eq!(with_bound.hash_join_builds, 0, "{with_bound:?}");
        assert_eq!(without.hash_join_builds, 2, "{without:?}");
    }

    #[test]
    fn memo_reuses_equal_bindings() {
        // metro -> hotel -> home: the `home` plan reads only $h.metro_id,
        // which is equal for both hotels under metro 1, so the second
        // sibling is a memo hit inside the window (the memo is
        // window-scoped, so reuse never crosses windows).
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let hotel = t
            .add_child(
                metro,
                ViewNode::new(
                    2,
                    "hotel",
                    "h",
                    parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap(),
                ),
            )
            .unwrap();
        t.add_child(
            hotel,
            ViewNode::new(
                3,
                "home",
                "x",
                parse_query("SELECT metroname FROM metroarea WHERE metroid=$h.metro_id").unwrap(),
            ),
        )
        .unwrap();
        let database = db();
        let p = publish_one(&t, &database).unwrap();
        // metro 1 has two hotels with the same metro_id: one hit.
        assert_eq!(p.stats.memo_hits, 1, "{:?}", p.stats);
        // The memoized relation still counts as a query run.
        assert_eq!(p.stats.queries_run, 1 + 2 + 3);
        // ... but never reaches the engine: the root query, then one
        // hotel and one home batch for the single window.
        assert_eq!(p.eval.queries, 1 + 1 + 1);
        // Document content identical to the interpreter's, and to the
        // reference walk's, which sees the same memo hit.
        let i = Reference::interpreted(&t).publish(&database).unwrap();
        assert_eq!(p.document.to_xml(), i.document.to_xml());
        let r = Reference::prepared(&t).publish(&database).unwrap();
        assert_eq!(p.document.to_xml(), r.document.to_xml());
        assert_eq!(p.stats.without_batch_counters(), r.stats);
    }

    #[test]
    fn delta_republish_of_leaf_change_matches_full_republish() {
        let tree = view();
        let mut database = wide_db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        assert!(prev.splice.is_some());
        assert!(prev.reexecuted.is_empty());

        // New 5-star hotel in chicago: only the hotel node reads `hotel`.
        let delta = database
            .execute_dml("INSERT INTO hotel VALUES (13, 'langham', 5, 1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(after.document.to_xml().contains("langham"));
        // One hotel batch across every surviving metro, instead of the
        // full run's one hotel batch per window of metros.
        assert_eq!(after.stats.batches_reexecuted, 1, "{:?}", after.stats);
        assert!(after.stats.batches_reexecuted < full.stats.batches_executed);
        // Only chicago's hotels are re-emitted (palmer and langham): the
        // insert's metro_id reaches no other metro.
        assert_eq!(after.stats.nodes_respliced, 2);
        assert_eq!(after.stats.delta_rows_in, 1);
        // Only the hotel node re-executed.
        let hotel = tree.find_by_paper_id(3).unwrap();
        assert_eq!(after.reexecuted, vec![hotel]);

        // The result carries a current splice index: deltas chain.
        let delta2 = database
            .execute_dml("DELETE FROM hotel WHERE hotelname = 'plaza'")
            .unwrap();
        let after2 = engine
            .session()
            .republish_delta(&database, &after, &delta2)
            .unwrap();
        let full2 = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after2.document.to_xml(), full2.document.to_xml());
        assert!(!after2.document.to_xml().contains("plaza"));
    }

    #[test]
    fn delta_republish_of_root_table_change_matches_full_republish() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        // metroarea feeds the root-level metro node: the whole document is
        // rebuilt through the root-top path.
        let delta = database
            .execute_dml("INSERT INTO metroarea VALUES (3, 'boston')")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(after.document.to_xml().contains("boston"));
    }

    #[test]
    fn delta_republish_ignores_unread_tables() {
        let tree = view();
        let mut database = db();
        database.create_table(
            TableSchema::new("audit", vec![ColumnDef::new("id", ColumnType::Int)]).unwrap(),
        );
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml("INSERT INTO audit VALUES (1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        assert_eq!(after.document.to_xml(), prev.document.to_xml());
        assert_eq!(after.stats.batches_reexecuted, 0);
        assert_eq!(after.stats.nodes_respliced, 0);
        assert_eq!(after.stats.delta_rows_in, 1);
        assert!(after.reexecuted.is_empty());
        assert!(after.splice.is_some());
    }

    #[test]
    fn delta_republish_without_splice_falls_back_to_full() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree); // not incremental
        let prev = engine.session().publish(&database).unwrap();
        assert!(prev.splice.is_none());
        let delta = database
            .execute_dml("INSERT INTO hotel VALUES (13, 'langham', 5, 1)")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert_eq!(after.stats.batches_reexecuted, after.stats.batches_executed);
        assert!(!after.reexecuted.is_empty());
    }

    #[test]
    fn delta_republish_handles_deletes_emptying_groups() {
        let tree = view();
        let mut database = db();
        let engine = Engine::new(&tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database
            .execute_dml("DELETE FROM hotel WHERE starrating > 4")
            .unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(&tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml());
        assert!(!after.document.to_xml().contains("hotel"));
        assert_eq!(after.stats.nodes_respliced, 0);
    }

    /// Publishes `tree` incrementally on [`wide_db`], applies `dml`, and
    /// checks the delta republish byte-for-byte against a full one.
    /// Returns the number of parent bindings the delta run seeded: its
    /// widest batch, as every parent metro carries a distinct binding.
    fn seeded_parents(tree: &SchemaTree, dml: &str) -> usize {
        let mut database = wide_db();
        let engine = Engine::new(tree).incremental(true);
        let prev = engine.session().publish(&database).unwrap();
        let delta = database.execute_dml(dml).unwrap();
        let after = engine
            .session()
            .republish_delta(&database, &prev, &delta)
            .unwrap();
        let full = Engine::new(tree).session().publish(&database).unwrap();
        assert_eq!(after.document.to_xml(), full.document.to_xml(), "{dml}");
        after.stats.bindings_per_batch_max
    }

    /// `metro` with one child node `tag` running `sql` (and `guard`).
    fn metro_with_child(tag: &str, sql: &str, guard: Option<&str>) -> SchemaTree {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let mut child = ViewNode::new(2, tag, "h", parse_query(sql).unwrap());
        child.guard = guard.map(|g| {
            parse_query(&format!("SELECT 1 FROM metroarea WHERE {g}"))
                .unwrap()
                .where_clause
                .unwrap()
        });
        t.add_child(metro, child).unwrap();
        t
    }

    const LUXURY_INSERT: &str = "INSERT INTO hotel VALUES (13, 'langham', 5, 1)";

    #[test]
    fn keyed_delta_seeds_only_the_parents_its_rows_reach() {
        // `metro_id = $m.metroid` keys the hotel node's only read of
        // `hotel`: the insert reaches chicago alone, and a delete reaches
        // the metros of the rows it removed.
        assert_eq!(seeded_parents(&view(), LUXURY_INSERT), 1);
        assert_eq!(
            seeded_parents(
                &view(),
                "DELETE FROM hotel WHERE hotelid = 12 OR hotelid = 104"
            ),
            2
        );
        // A key no published metro carries reaches nothing.
        assert_eq!(
            seeded_parents(&view(), "INSERT INTO hotel VALUES (13, 'x', 5, 999)"),
            0
        );
    }

    #[test]
    fn unkeyed_shapes_seed_every_parent() {
        let all = WIDE_METROS;
        // `hotel` read twice.
        let twice = metro_with_child(
            "hotel",
            "SELECT a.hotelid, a.hotelname FROM hotel a, hotel b \
             WHERE a.metro_id = $m.metroid AND b.hotelid = a.hotelid AND b.starrating > 4",
            None,
        );
        assert_eq!(seeded_parents(&twice, LUXURY_INSERT), all);
        // `hotel` read only inside EXISTS.
        let exists = metro_with_child(
            "luxury",
            "SELECT metroname FROM metroarea WHERE metroid = $m.metroid \
             AND EXISTS (SELECT 1 FROM hotel WHERE metro_id = $m.metroid AND starrating > 4)",
            None,
        );
        assert_eq!(seeded_parents(&exists, LUXURY_INSERT), all);
        // The key equality under an OR.
        let or = metro_with_child(
            "hotel",
            "SELECT * FROM hotel WHERE (metro_id = $m.metroid OR hotelid = 11) \
             AND starrating > 4",
            None,
        );
        assert_eq!(seeded_parents(&or, LUXURY_INSERT), all);
        // A guard that reads `hotel`.
        let guarded = metro_with_child(
            "hotel",
            "SELECT * FROM hotel WHERE metro_id = $m.metroid AND starrating > 4",
            Some("EXISTS (SELECT 1 FROM hotel WHERE hotelid = 13)"),
        );
        assert_eq!(seeded_parents(&guarded, LUXURY_INSERT), all);
        // An affected descendant: the hotel node's child reads `hotel` too.
        let mut deep = view();
        let hotel = deep.find_by_paper_id(3).unwrap();
        deep.add_child(
            hotel,
            ViewNode::new(
                4,
                "peer",
                "p",
                parse_query("SELECT hotelname FROM hotel WHERE starrating = $h.starrating")
                    .unwrap(),
            ),
        )
        .unwrap();
        assert_eq!(seeded_parents(&deep, LUXURY_INSERT), all);
        // A NULL key in the delta row.
        assert_eq!(
            seeded_parents(&view(), "INSERT INTO hotel VALUES (13, 'nowhere', 5, NULL)"),
            all
        );
    }

    #[test]
    fn incremental_publish_splice_covers_every_element() {
        let tree = view();
        // One window, then several (merged from parallel threads).
        for database in [db(), wide_db()] {
            let p = Engine::new(&tree)
                .incremental(true)
                .parallel(4)
                .session()
                .publish(&database)
                .unwrap();
            let splice = p.splice.expect("incremental publish records splice");
            assert_eq!(splice.entries.len(), p.stats.elements);
            // Every entry's view node exists, the root elements carry
            // their own binding in child_env, and the leaf hotels record
            // no environment.
            let metro = tree.find_by_paper_id(1).unwrap();
            let roots = p.document.children(p.document.root()).to_vec();
            for r in roots {
                let e = &splice.entries[&r];
                assert_eq!(e.view, metro);
                assert!(e.child_env.as_ref().unwrap().contains_key("m"));
                for c in p.document.children(r) {
                    assert!(splice.entries[c].child_env.is_none());
                }
            }
        }
    }

    #[test]
    fn memo_hits_do_not_count_rows_regrouped() {
        // metro -> hotel -> home, where `home` reads only $h.metro_id:
        // under metro 1 the second hotel is a memo hit, so its parent is
        // served without entering the batch — rows_regrouped must count
        // the engine-executed bindings' rows only.
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid, metroname FROM metroarea").unwrap(),
            ))
            .unwrap();
        let hotel = t
            .add_child(
                metro,
                ViewNode::new(
                    2,
                    "hotel",
                    "h",
                    parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap(),
                ),
            )
            .unwrap();
        t.add_child(
            hotel,
            ViewNode::new(
                3,
                "home",
                "x",
                parse_query("SELECT metroname FROM metroarea WHERE metroid=$h.metro_id").unwrap(),
            ),
        )
        .unwrap();
        let database = db();
        for threads in [1, 4] {
            let p = Engine::new(&t)
                .parallel(threads)
                .session()
                .publish(&database)
                .unwrap();
            assert_eq!(p.stats.memo_hits, 1, "{:?}", p.stats);
            // hotel rows: 2 under metro 1 + 1 under metro 2; home rows:
            // one per *executed* home batch binding (metro 1's second
            // hotel is memo-served): 1 + 1. Counting memo hits too would
            // give 6.
            assert_eq!(p.stats.rows_regrouped, 3 + 2, "{:?}", p.stats);
            // Both metros fall in one window: one hotel batch + one home
            // batch, each carrying one binding per metro.
            assert_eq!(p.stats.batches_executed, 2);
            assert_eq!(p.stats.bindings_per_batch_max, 2);
            // Scalar parity on everything that is not batch-only.
            let s = Reference::prepared(&t).publish(&database).unwrap();
            assert_eq!(p.stats.without_batch_counters(), s.stats);
            assert_eq!(p.document.to_xml(), s.document.to_xml());
        }

        // The same view over three windows of metros, so four threads
        // take whole windows; every counter matches the sequential run.
        let wide = wide_db();
        let seq = Engine::new(&t).session().publish(&wide).unwrap();
        assert_eq!(seq.stats.memo_hits, 1, "{:?}", seq.stats);
        // 21 hotel rows, plus one home row per hotel except the
        // memo-served one.
        assert_eq!(seq.stats.rows_regrouped, 21 + 20, "{:?}", seq.stats);
        // One hotel and one home batch per window.
        assert_eq!(
            seq.stats.batches_executed,
            2 * WIDE_METROS.div_ceil(ROOT_WINDOW)
        );
        let par = Engine::new(&t)
            .parallel(4)
            .session()
            .publish(&wide)
            .unwrap();
        assert_eq!(par.stats, seq.stats);
        assert_eq!(par.eval, seq.eval);
        assert_eq!(par.document.to_xml(), seq.document.to_xml());
        let s = Reference::prepared(&t).publish(&wide).unwrap();
        assert_eq!(par.stats.without_batch_counters(), s.stats);
        assert_eq!(par.document.to_xml(), s.document.to_xml());
    }
}
