//! Publishing: evaluating a schema-tree query to an XML document, `v(I)`.
//!
//! The public entry point is [`crate::Engine`] / [`crate::Session`] (see
//! the `engine` module); this module holds the execution machinery those
//! drive: the **plan-cache** types (each node's tag query compiled once
//! into an [`xvc_rel::PreparedPlan`]), **set-oriented** publishing (the
//! root elements cut into windows of [`ROOT_WINDOW`], each expanded by one
//! breadth-first frontier walk running one
//! [`xvc_rel::PreparedPlan::execute_batch_stats`] per (view node, wave)
//! instead of one execution per parent tuple), a bounded per-window
//! **result memo** (repeated parent tuples with equal relevant binding
//! values reuse the child relation), **parallel** window evaluation
//! (`std::thread::scope`) that keeps document order and
//! thread-count-independent statistics, and the **delta-republish** graft
//! walk.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use xvc_rel::{
    eval_query_stats, Database, EvalOptions, EvalStats, NamedTuple, ParamEnv, PreparedPlan,
    Relation, ScalarExpr, SelectItem, SelectQuery,
};
use xvc_xml::{Document, TreeBuilder, XmlSink};

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
    /// with at least one non-memoized binding. Zero on the scalar path.
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
    /// Adds `other`'s counters into `self` (used to merge per-subtree
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
    /// what the run would have reported on the scalar path, which is
    /// identical on every other field (the equality the batched-vs-scalar
    /// tests assert).
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

/// Per-element splice provenance of a batched publish, keyed by document
/// node — the structural index [`crate::Session::republish_delta`] patches
/// through. Recorded only when [`crate::Engine::incremental`] is on.
#[derive(Debug, Clone, Default)]
pub struct SpliceIndex {
    /// One entry per emitted element.
    pub entries: HashMap<xvc_xml::NodeId, SpliceEntry>,
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
    /// Splice provenance; `Some` only on batched publishes with
    /// [`crate::Engine::incremental`] on (delta republishes keep it current).
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
const MEMO_CAP: usize = 256;

/// Root-level element instances per window, the unit of work of a
/// publish. The root instances are cut, in document order, into windows
/// of this many; each window runs one breadth-first frontier walk whose
/// wave 0 is its root elements, so every (view node, wave) executes one
/// batch per window. The streaming path drains one window at a time, so
/// its emission peak is the largest window of root subtrees. Larger
/// windows batch more but hold more of the document at once.
pub const ROOT_WINDOW: usize = 8;

/// Publish-path toggles, fixed per [`crate::Engine`] (see the builder
/// methods there for what each flag does).
#[derive(Debug, Clone)]
pub(crate) struct PublishConfig {
    pub(crate) tracing: bool,
    pub(crate) parallel: usize,
    pub(crate) prepared: bool,
    pub(crate) batched: bool,
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
/// [`run_full_publish`], plus: `lineage` was analyzed from `tree`, `prev`
/// carries a splice index and `cfg` is batched (the caller handles the
/// full-republish fallback).
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
/// the batched frontier walk with the arena sink swapped for the reusable
/// per-window [`Skeleton`], drained into `sink` window by window —
/// serialized XML is the only output; no document is ever materialized.
/// Returns `(stats, eval, peak_emit_bytes)` where the peak is the
/// high-water mark of the skeleton's buffers across windows (the emission
/// path's whole retained footprint, bounded by the largest window of
/// [`ROOT_WINDOW`] root subtrees rather than the document).
///
/// Caller contract: same as [`run_full_publish`], plus `cfg` is batched
/// and untraced (the caller handles the materializing fallback). Windows
/// run sequentially — bytes leave in document order, so there is nothing
/// to parallelize ahead of the writer.
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
    /// queries and lists the root element instances, in document order.
    /// Callers cut that list into windows of [`ROOT_WINDOW`]; the
    /// decomposition — and therefore every per-window counter — is
    /// independent of the thread count *and* of the sink (arena vs
    /// streaming) the windows are later drained through. Returns the
    /// worker that ran the root queries (it carries their
    /// stats/eval/trace) and the root instances.
    fn root_pass<'s>(&self, shared: &'s Shared<'s>) -> Result<(Worker<'s>, Vec<Root>)> {
        let mut main = Worker::new(shared, HashMap::new());
        let mut roots: Vec<Root> = Vec::new();
        let mut root_counts: HashMap<String, usize> = HashMap::new();
        let env = ParamEnv::new();
        for &child in self.tree.children(self.tree.root()) {
            let node = self.tree.node(child).expect("non-root id");
            if let Some(guard) = &node.guard {
                main.stats.queries_run += 1;
                let probe = guard_probe(guard);
                if main
                    .run_tag_query(child, Role::Guard, &probe, &env)?
                    .is_empty()
                {
                    continue;
                }
            }
            let mut seed = |tag: &str| {
                let n = root_counts.entry(tag.to_owned()).or_insert(0);
                *n += 1;
                *n - 1
            };
            match &node.query {
                Some(q) if node.context_tuple_of.is_none() => {
                    let rel = main.run_tag_query(child, Role::Tag, q, &env)?;
                    main.stats.queries_run += 1;
                    main.stats.tuples_fetched += rel.len();
                    for i in 0..rel.len() {
                        roots.push(Root {
                            vid: child,
                            tag: node.tag.clone(),
                            index: seed(&node.tag),
                            tuple: Some(rel.tuple(i)),
                        });
                    }
                }
                _ => {
                    roots.push(Root {
                        vid: child,
                        tag: node.tag.clone(),
                        index: seed(&node.tag),
                        tuple: None,
                    });
                }
            }
        }
        Ok((main, roots))
    }

    /// Evaluates the schema tree against `db`, producing `v(I)` plus
    /// statistics (and a trace when requested).
    fn full(&self, db: &Database, mut stats: PublishStats) -> Result<Published> {
        let collect_splice = self.cfg.incremental && self.cfg.batched;
        let shared = Shared {
            tree: self.tree,
            db,
            plans: self.plans,
            use_plans: self.cfg.prepared,
            tracing: self.cfg.tracing,
            batched: self.cfg.batched,
            collect_splice,
        };
        let (main, roots) = self.root_pass(&shared)?;

        let outs = run_windows(&shared, &roots, self.cfg.parallel);

        // Deterministic merge, in window (= document) order.
        stats.absorb(&main.stats);
        let mut eval = main.eval;
        let mut trace = main.trace;
        let mut builder = TreeBuilder::new();
        let mut splice_parts: Vec<(Document, HashMap<xvc_xml::NodeId, SpliceEntry>)> = Vec::new();
        for out in outs {
            let out = out?;
            let kids: Vec<_> = out.doc.children(out.doc.root()).to_vec();
            for kid in kids {
                builder.import(&out.doc, kid);
            }
            stats.absorb(&out.stats);
            eval.absorb(&out.eval);
            trace.extend(out.trace);
            if collect_splice {
                splice_parts.push((out.doc, out.splice));
            }
        }
        let document = builder.finish();
        let splice = collect_splice.then(|| {
            // Window fragments were imported root child by root child, in
            // window order; `import` deep-copies, so zipping the pre-orders
            // of each fragment subtree with the matching final subtree
            // remaps every recorded node id.
            let mut entries = HashMap::new();
            let mut final_roots = document.children(document.root()).iter().copied();
            for (doc, mut part) in splice_parts {
                for &kid in doc.children(doc.root()) {
                    let froot = final_roots.next().expect("merge keeps root children");
                    for (o, n) in doc
                        .descendants_or_self(kid)
                        .zip(document.descendants_or_self(froot))
                    {
                        if let Some(e) = part.remove(&o) {
                            entries.insert(n, e);
                        }
                    }
                }
            }
            SpliceIndex { entries }
        });
        Ok(Published {
            document,
            stats,
            eval,
            trace: self.cfg.tracing.then_some(PublishTrace { entries: trace }),
            splice,
            reexecuted: Vec::new(),
        })
    }

    /// Streams `v(I)` into `sink` with no output DOM: the same root pass,
    /// windows and breadth-first wave machinery as [`Run::full`], but each
    /// window's elements land in the reusable [`Skeleton`] instead of an
    /// arena document and are serialized out (document-order DFS) as soon
    /// as the window's waves are exhausted, so the emission peak is
    /// bounded by the largest window of [`ROOT_WINDOW`] root subtrees.
    /// Byte output equals `full(..).document.to_xml()` through the same
    /// [`XmlSink`]; stats and eval counters equal the batched
    /// materializing path's (the memo stays window-scoped, the
    /// decomposition is identical).
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
            use_plans: self.cfg.prepared,
            tracing: false,
            batched: true,
            collect_splice: false,
        };
        let (main, roots) = self.root_pass(&shared)?;
        stats.absorb(&main.stats);
        let mut eval = main.eval;

        let mut w = BatchWorker::with_store(&shared, Skeleton::default());
        let mut peak = 0usize;
        for window in roots.chunks(ROOT_WINDOW) {
            // Per-window state resets exactly as a fresh `BatchWorker`
            // would: the memo is window-scoped (statistics parity with
            // `run_window_batched`), the skeleton's buffers are drained but
            // keep their capacity and interned names.
            w.doc.begin_window();
            w.memo.clear();
            let root = w.doc.root();
            let frontier = w.seed_window(root, window);
            expand_frontier(&mut w, frontier)?;
            peak = peak.max(w.doc.heap_bytes());
            w.doc.emit(sink)?;
        }
        stats.absorb(&w.stats);
        eval.absorb(&w.eval);
        Ok((stats, eval, peak))
    }

    /// Incrementally republishes after a base-table mutation: maps `delta`
    /// through the conservative table → view-node dependency map
    /// ([`crate::TableDeps`]), re-executes only the *top-most* affected
    /// view nodes — level-at-a-time, one batch per (view node, wave)
    /// across every parent instance the delta can reach, or across all of
    /// them where the key lineage cannot tell — and splices the fresh
    /// subtrees into `prev`'s document in place of the stale ones.
    /// See [`crate::Session::republish_delta`] for the full contract.
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
            use_plans: self.cfg.prepared,
            tracing: false,
            batched: true,
            collect_splice: true,
        };
        let mut w = BatchWorker::new(&shared);
        let wroot = w.doc.root();
        let mut patches: HashMap<xvc_xml::NodeId, Vec<(ViewNodeId, xvc_xml::NodeId)>> =
            HashMap::new();
        let mut frontier: Vec<Pending> = Vec::new();
        let mut seed = |w: &mut BatchWorker<'_>,
                        prev_parent: xvc_xml::NodeId,
                        vid: ViewNodeId,
                        env: Arc<ParamEnv>| {
            let holder = w.doc.create_element("delta-holder");
            w.doc.append_child(wroot, holder);
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
        expand_frontier(&mut w, frontier)?;

        // Splice: rebuild the document (the arena has no detach), copying
        // unaffected subtrees from `prev` and grafting each holder's fresh
        // children at the stale group's position.
        for list in patches.values_mut() {
            list.sort_by_key(|(vid, _)| vid.index());
        }
        let mut graft = Graft {
            old: &prev.document,
            old_splice: &prev_splice.entries,
            patches: &patches,
            worker_doc: &w.doc,
            worker_splice: &w.splice,
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
    use_plans: bool,
    tracing: bool,
    batched: bool,
    collect_splice: bool,
}

/// One root-level element instance to publish: a query-node tuple, or a
/// literal / context-copy element. Consecutive instances form the windows
/// of [`ROOT_WINDOW`] a publish is cut into.
struct Root {
    vid: ViewNodeId,
    tag: String,
    /// 0-based occurrence index of `tag` among root-level siblings, for
    /// indexed trace paths.
    index: usize,
    tuple: Option<NamedTuple>,
}

/// Same-tag root-level sibling counts preceding `window`, the seed of its
/// indexed trace paths. A window is consecutive in document order, so the
/// first instance of each tag carries the count of the ones before it.
fn sibling_seed(window: &[Root]) -> HashMap<String, usize> {
    let mut seed = HashMap::new();
    for r in window {
        seed.entry(r.tag.clone()).or_insert(r.index);
    }
    seed
}

/// What one window produced: a document fragment (its root elements'
/// subtrees) plus its private counters and trace entries.
struct WindowOut {
    doc: Document,
    stats: PublishStats,
    eval: EvalStats,
    trace: Vec<TraceEntry>,
    /// Splice provenance keyed by *window-local* node ids (remapped to
    /// final document ids during the merge). Empty unless splice
    /// collection is on.
    splice: HashMap<xvc_xml::NodeId, SpliceEntry>,
}

/// Cuts `roots` into windows of [`ROOT_WINDOW`] and runs each — inline
/// when `parallel <= 1`, else on a scoped thread pool that hands out
/// whole windows — returning results in window order.
fn run_windows(shared: &Shared<'_>, roots: &[Root], parallel: usize) -> Vec<Result<WindowOut>> {
    let windows: Vec<&[Root]> = roots.chunks(ROOT_WINDOW).collect();
    let n = parallel.clamp(1, windows.len().max(1));
    if n <= 1 {
        return windows.iter().map(|w| run_window(shared, w)).collect();
    }
    let slots: Vec<Mutex<Option<Result<WindowOut>>>> =
        windows.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..n {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(window) = windows.get(i) else { break };
                let out = run_window(shared, window);
                *slots[i].lock().expect("window slot") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("window slot")
                .expect("every window slot is filled")
        })
        .collect()
}

fn run_window(shared: &Shared<'_>, window: &[Root]) -> Result<WindowOut> {
    if shared.batched {
        return run_window_batched(shared, window);
    }
    // The reference walk: one worker (and so one memo) per window, the
    // scope the batched walk's memo has.
    let mut w = Worker::new(shared, sibling_seed(window));
    let env = ParamEnv::new();
    for r in window {
        w.emit_instance(r.vid, &env, r.tuple.as_ref())?;
    }
    Ok(WindowOut {
        doc: w.builder.finish(),
        stats: w.stats,
        eval: w.eval,
        trace: w.trace,
        splice: HashMap::new(),
    })
}

/// Publishes one window breadth-first: wave 0 is the window's root
/// elements, and the frontier holds every `(parent element, view node,
/// bindings)` still to expand at the current depth. Each (view node,
/// wave) pair runs **one** set-oriented tag-query / guard execution for
/// all its parents across the window, with the rows regrouped back to
/// their parent elements afterwards. Document order is preserved because
/// a parent's pending view nodes are expanded in schema order (ascending
/// node id) and each batch returns per-binding rows in the scalar path's
/// row order.
fn run_window_batched(shared: &Shared<'_>, window: &[Root]) -> Result<WindowOut> {
    let mut w = BatchWorker::new(shared);
    let root = w.doc.root();
    let frontier = w.seed_window(root, window);
    expand_frontier(&mut w, frontier)?;

    let trace = if shared.tracing {
        w.build_trace(window)
    } else {
        Vec::new()
    };
    Ok(WindowOut {
        doc: w.doc,
        stats: w.stats,
        eval: w.eval,
        trace,
        splice: w.splice,
    })
}

/// Queues every child view node of the element `el` (an instance of
/// `vid`) for the next wave, all sharing the element's child bindings.
fn push_children<Id: Copy>(
    next: &mut Vec<Pending<Id>>,
    tree: &SchemaTree,
    vid: ViewNodeId,
    el: Id,
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

/// The level-at-a-time engine of the batched path: expands `frontier`
/// breadth-first to exhaustion inside `w`'s store. Factored out of
/// [`run_window_batched`] so [`crate::Session::republish_delta`] can seed
/// it with an arbitrary set of `(parent, view node, bindings)` slots
/// instead of a window's roots, and generic over the [`WaveStore`] so the
/// streaming sink ([`Run::stream`]) runs the identical walk.
fn expand_frontier<S: WaveStore>(
    w: &mut BatchWorker<'_, S>,
    mut frontier: Vec<Pending<S::Id>>,
) -> Result<()> {
    let tree = w.shared.tree;
    while !frontier.is_empty() {
        let mut next: Vec<Pending<S::Id>> = Vec::new();
        // Group the level by view node, in schema (ascending id) order:
        // every parent sees its children appended in schema order, and
        // each group becomes at most one guard batch + one tag batch.
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, p) in frontier.iter().enumerate() {
            groups.entry(p.vid.index()).or_default().push(i);
        }
        for (_, mut live) in groups {
            let vid = frontier[live[0]].vid;
            let node = tree.node(vid).expect("frontier holds non-root ids");

            if let Some(guard) = &node.guard {
                w.touched.insert(vid.index());
                let probe = guard_probe(guard);
                let envs: Vec<&ParamEnv> = live.iter().map(|&i| &*frontier[i].env).collect();
                w.stats.queries_run += envs.len();
                let rels = w.run_batch(vid, Role::Guard, &probe, &envs)?;
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
                    let (el, child_env) = w.emit_node_instance(p.parent, vid, &p.env, None);
                    push_children(&mut next, tree, vid, el, &child_env);
                }
                continue;
            }

            w.touched.insert(vid.index());
            let query = node.query.as_ref().expect("query node");
            let envs: Vec<&ParamEnv> = live.iter().map(|&i| &*frontier[i].env).collect();
            let rels = w.run_batch(vid, Role::Tag, query, &envs)?;
            for (&i, rel) in live.iter().zip(&rels) {
                let p = &frontier[i];
                w.stats.queries_run += 1;
                w.stats.tuples_fetched += rel.len();
                for row in &rel.rows {
                    let (el, child_env) =
                        w.emit_node_instance(p.parent, vid, &p.env, Some((&rel.columns, row)));
                    push_children(&mut next, tree, vid, el, &child_env);
                }
            }
        }
        frontier = next;
    }
    Ok(())
}

/// Rebuilds the previous document with fresh subtrees grafted in. The
/// arena [`Document`] has no node removal, so splicing is a copy walk:
/// unaffected nodes are copied verbatim from the old document; at a
/// patched parent, each stale child group (all instances of one view
/// node) is replaced by the matching holder's children from the delta
/// worker's document, at the stale group's sibling position.
struct Graft<'g> {
    old: &'g Document,
    old_splice: &'g HashMap<xvc_xml::NodeId, SpliceEntry>,
    /// Old parent node → `(child view node, holder)` replacements, sorted
    /// by ascending view-node index (sibling groups appear in that order).
    patches: &'g HashMap<xvc_xml::NodeId, Vec<(ViewNodeId, xvc_xml::NodeId)>>,
    worker_doc: &'g Document,
    worker_splice: &'g HashMap<xvc_xml::NodeId, SpliceEntry>,
    new_doc: Document,
    /// Splice index of the rebuilt document, filled during the walk.
    entries: HashMap<xvc_xml::NodeId, SpliceEntry>,
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
    fn copy_children(&mut self, old_parent: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
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

    /// Appends every child of a delta-worker holder under `new_parent`.
    fn graft_holder(&mut self, holder: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
        for &c in self.worker_doc.children(holder) {
            self.respliced += 1;
            copy_subtree(
                self.worker_doc,
                self.worker_splice,
                c,
                &mut self.new_doc,
                new_parent,
                &mut self.entries,
            );
        }
    }

    /// Copies one old subtree, descending with patch awareness (a patched
    /// parent can sit arbitrarily deep below an unaffected ancestor).
    fn copy_old_subtree(&mut self, old_id: xvc_xml::NodeId, new_parent: xvc_xml::NodeId) {
        let new_id = copy_node(
            self.old,
            self.old_splice,
            old_id,
            &mut self.new_doc,
            new_parent,
            &mut self.entries,
        );
        self.copy_children(old_id, new_id);
    }
}

/// Copies a single node (element or text) without its children, carrying
/// its splice entry over; returns the new id.
fn copy_node(
    src: &Document,
    src_splice: &HashMap<xvc_xml::NodeId, SpliceEntry>,
    src_id: xvc_xml::NodeId,
    dst: &mut Document,
    dst_parent: xvc_xml::NodeId,
    dst_splice: &mut HashMap<xvc_xml::NodeId, SpliceEntry>,
) -> xvc_xml::NodeId {
    let new_id = match src.kind(src_id) {
        xvc_xml::NodeKind::Element { name, attrs } => {
            let (name, attrs) = (name.clone(), attrs.clone());
            let el = dst.create_element(name);
            for (k, v) in attrs {
                dst.set_attr(el, k, v).expect("created as element");
            }
            el
        }
        xvc_xml::NodeKind::Text(t) => {
            let t = t.clone();
            dst.create_text(t)
        }
        xvc_xml::NodeKind::Root => unreachable!("roots are never copied"),
    };
    dst.append_child(dst_parent, new_id);
    if let Some(e) = src_splice.get(&src_id) {
        dst_splice.insert(new_id, e.clone());
    }
    new_id
}

/// Copies a whole subtree (used for grafting fresh delta subtrees).
fn copy_subtree(
    src: &Document,
    src_splice: &HashMap<xvc_xml::NodeId, SpliceEntry>,
    src_id: xvc_xml::NodeId,
    dst: &mut Document,
    dst_parent: xvc_xml::NodeId,
    dst_splice: &mut HashMap<xvc_xml::NodeId, SpliceEntry>,
) {
    let new_id = copy_node(src, src_splice, src_id, dst, dst_parent, dst_splice);
    for &c in src.children(src_id) {
        copy_subtree(src, src_splice, c, dst, new_id, dst_splice);
    }
}

/// One frontier slot: a view node still to expand under `parent` with the
/// bindings accumulated on the path down to it, shared with the slot's
/// sibling view nodes under the same parent. Generic over the element
/// handle of the [`WaveStore`] the walk materializes into (arena
/// [`xvc_xml::NodeId`] by default).
struct Pending<Id = xvc_xml::NodeId> {
    parent: Id,
    vid: ViewNodeId,
    env: Arc<ParamEnv>,
}

/// Where the batched frontier walk materializes elements: the arena
/// [`Document`] (full publishes, traces, delta splicing) or the reusable
/// per-window [`Skeleton`] drained by the streaming sink. The store only
/// sees the three structural operations the wave loop performs; the memo,
/// batching and statistics machinery is shared by both, so the two
/// emission back ends cannot drift apart.
trait WaveStore {
    /// Copyable element handle (hashable: provenance maps key on it).
    type Id: Copy + Eq + std::hash::Hash;
    /// Creates a detached element named `tag`.
    fn create_element(&mut self, tag: &str) -> Self::Id;
    /// Appends a freshly created element as `parent`'s last child.
    fn append_child(&mut self, parent: Self::Id, child: Self::Id);
    /// Sets an attribute; a duplicate name replaces the existing value
    /// **in place** (the arena contract, load-bearing for byte parity).
    fn set_attr(&mut self, el: Self::Id, name: &str, value: &str);
}

impl WaveStore for Document {
    type Id = xvc_xml::NodeId;

    fn create_element(&mut self, tag: &str) -> xvc_xml::NodeId {
        Document::create_element(self, tag)
    }

    fn append_child(&mut self, parent: xvc_xml::NodeId, child: xvc_xml::NodeId) {
        Document::append_child(self, parent, child);
    }

    fn set_attr(&mut self, el: xvc_xml::NodeId, name: &str, value: &str) {
        Document::set_attr(self, el, name, value).expect("created as element");
    }
}

/// Sentinel for "no node" in the skeleton's intrusive child lists.
const SKEL_NONE: u32 = u32::MAX;

/// Element handle inside a [`Skeleton`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SkelId(u32);

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

/// The streaming path's per-window element store: just enough structure
/// to emit one window's root-level subtrees in document order after its
/// breadth-first waves complete. Tag and attribute names are interned (a
/// schema tree has a handful of distinct names, reused across every
/// window); attribute values share one text buffer; child lists are
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
}

impl Skeleton {
    /// Clears per-window state (keeping buffer capacity and interned
    /// names) and re-creates the synthetic window root.
    fn begin_window(&mut self) {
        self.nodes.clear();
        self.attrs.clear();
        self.text.clear();
        self.nodes.push(SkelNode {
            tag: SKEL_NONE,
            first_child: SKEL_NONE,
            last_child: SKEL_NONE,
            next_sibling: SKEL_NONE,
            attr_start: 0,
            attr_len: 0,
        });
    }

    /// The synthetic window root (emission serializes its children).
    fn root(&self) -> SkelId {
        debug_assert!(!self.nodes.is_empty(), "begin_window before use");
        SkelId(0)
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
            + self.names.iter().map(String::capacity).sum::<usize>()
    }

    /// Serializes the window's subtrees into `sink` in document order (an
    /// iterative DFS over the intrusive child links; no recursion, so
    /// recursion-heavy views cannot overflow the stack here).
    fn emit(&self, sink: &mut dyn XmlSink) -> io::Result<()> {
        let mut stack: Vec<u32> = Vec::new();
        let mut cur = self.nodes[0].first_child;
        loop {
            while cur != SKEL_NONE {
                let n = self.nodes[cur as usize];
                sink.start_element(&self.names[n.tag as usize])?;
                for a in &self.attrs[n.attr_start as usize..(n.attr_start + n.attr_len) as usize] {
                    sink.attr(
                        &self.names[a.name as usize],
                        &self.text[a.val_start as usize..(a.val_start + a.val_len) as usize],
                    )?;
                }
                stack.push(cur);
                cur = n.first_child;
            }
            loop {
                let Some(top) = stack.pop() else {
                    return Ok(());
                };
                let n = self.nodes[top as usize];
                sink.end_element(&self.names[n.tag as usize])?;
                if n.next_sibling != SKEL_NONE {
                    cur = n.next_sibling;
                    break;
                }
            }
        }
    }
}

impl WaveStore for Skeleton {
    type Id = SkelId;

    fn create_element(&mut self, tag: &str) -> SkelId {
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
        SkelId(id)
    }

    fn append_child(&mut self, parent: SkelId, child: SkelId) {
        let p = parent.0 as usize;
        if self.nodes[p].first_child == SKEL_NONE {
            self.nodes[p].first_child = child.0;
        } else {
            let last = self.nodes[p].last_child as usize;
            self.nodes[last].next_sibling = child.0;
        }
        self.nodes[p].last_child = child.0;
    }

    fn set_attr(&mut self, el: SkelId, name: &str, value: &str) {
        let name = self.intern(name);
        let val_start = u32::try_from(self.text.len()).expect("values fit u32");
        self.text.push_str(value);
        let val_len = u32::try_from(value.len()).expect("value fits u32");
        let e = el.0 as usize;
        let (start, len) = (
            self.nodes[e].attr_start as usize,
            self.nodes[e].attr_len as usize,
        );
        if let Some(a) = self.attrs[start..start + len]
            .iter_mut()
            .find(|a| a.name == name)
        {
            // Mirror the arena: a duplicate name replaces the value at the
            // original attribute position.
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
}

/// Per-window state of the breadth-first walk. Unlike [`Worker`] it
/// builds its [`WaveStore`] directly (batched expansion appends to
/// parents created in earlier waves, which a forward-only builder cannot
/// do): the arena [`Document`] for full/delta publishes — with the trace
/// reconstructed afterwards in document order — or the [`Skeleton`] the
/// streaming sink drains.
struct BatchWorker<'a, S: WaveStore = Document> {
    shared: &'a Shared<'a>,
    doc: S,
    stats: PublishStats,
    eval: EvalStats,
    /// [`memo_key`] → relation, same scope and cap as the scalar worker's
    /// memo. Relations are shared with the batch output slots, not copied.
    memo: HashMap<String, Rc<Relation>>,
    /// Element provenance for trace reconstruction (tracing runs only).
    prov: HashMap<S::Id, (ViewNodeId, Arc<ParamEnv>)>,
    /// Splice provenance (splice-collecting runs only).
    splice: HashMap<S::Id, SpliceEntry>,
    /// View nodes whose guard / tag batches this worker issued (delta-path
    /// soundness bookkeeping; node arena indexes).
    touched: std::collections::BTreeSet<usize>,
}

impl<'a> BatchWorker<'a, Document> {
    fn new(shared: &'a Shared<'a>) -> Self {
        Self::with_store(shared, Document::new())
    }
}

impl<'a, S: WaveStore> BatchWorker<'a, S> {
    fn with_store(shared: &'a Shared<'a>, doc: S) -> Self {
        BatchWorker {
            shared,
            doc,
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            memo: HashMap::new(),
            prov: HashMap::new(),
            splice: HashMap::new(),
            touched: std::collections::BTreeSet::new(),
        }
    }

    /// Wave 0 of a window's walk: emits the window's root elements under
    /// `root`, in document order, and returns the frontier of their child
    /// view nodes.
    fn seed_window(&mut self, root: S::Id, window: &[Root]) -> Vec<Pending<S::Id>> {
        let env = Arc::new(ParamEnv::new());
        let mut frontier = Vec::new();
        for r in window {
            let row = r.tuple.as_ref().map(|t| (&t.columns[..], &t.values[..]));
            let (el, child_env) = self.emit_node_instance(root, r.vid, &env, row);
            push_children(&mut frontier, self.shared.tree, r.vid, el, &child_env);
        }
        frontier
    }

    /// Creates one element instance under `parent` — tag, static and
    /// projected attributes of its tuple row (`(columns, values)`),
    /// counters, provenance — and returns it with the environment its
    /// children run under. A node with no children builds no child
    /// environment and hands back `env`. The per-node-kind logic mirrors
    /// [`Worker::emit_instance`] exactly.
    fn emit_node_instance(
        &mut self,
        parent: S::Id,
        vid: ViewNodeId,
        env: &Arc<ParamEnv>,
        row: Option<(&[String], &[xvc_rel::Value])>,
    ) -> (S::Id, Arc<ParamEnv>) {
        let tree = self.shared.tree;
        let node = tree.node(vid).expect("non-root id");
        let el = self.doc.create_element(&node.tag);
        self.doc.append_child(parent, el);
        self.stats.elements += 1;
        if self.shared.tracing {
            self.prov.insert(el, (vid, Arc::clone(env)));
        }
        for (k, v) in &node.static_attrs {
            self.doc.set_attr(el, k, v);
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
        if self.shared.collect_splice {
            self.splice.insert(
                el,
                SpliceEntry {
                    view: vid,
                    child_env: needs_env.then(|| Arc::clone(&child_env)),
                },
            );
        }
        (el, child_env)
    }

    /// Sets a row's projected columns as attributes (see [`project_attrs`]).
    fn set_tuple_attrs(
        &mut self,
        el: S::Id,
        attrs: &AttrProjection,
        columns: &[String],
        values: &[xvc_rel::Value],
    ) {
        for (k, v) in project_attrs(attrs, columns, values) {
            self.doc.set_attr(el, k, &v.render());
            self.stats.attributes += 1;
        }
    }

    /// Set-oriented counterpart of [`Worker::run_tag_query`]: one relation
    /// per environment, in order. Memo semantics are emulated exactly
    /// (hits, misses, cap-bounded inserts) by resolving every binding's
    /// memo key first and batching only the environments the scalar path
    /// would have sent to the engine.
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
        if self.shared.use_plans {
            if let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&plan_key) {
                let mut out: Vec<Option<Rc<Relation>>> = vec![None; envs.len()];
                // env index → slot in `pending` whose result it shares.
                let mut share: Vec<usize> = vec![usize::MAX; envs.len()];
                let mut pending: Vec<&ParamEnv> = Vec::new();
                // memo key → (pending slot of its first execution, whether
                // that execution will be inserted into the memo).
                let mut in_flight: HashMap<String, (usize, bool)> = HashMap::new();
                let mut planned_inserts = 0usize;
                let mut key = String::new();
                for (i, &env) in envs.iter().enumerate() {
                    // Unresolvable slots bypass the memo, exactly like the
                    // scalar path (the execution itself reports the unbound
                    // parameter, if the plan reaches it).
                    if !memo_key(&mut key, plan_key, plan.slots(), env) {
                        share[i] = pending.len();
                        pending.push(env);
                    } else if let Some(hit) = self.memo.get(&key) {
                        self.stats.memo_hits += 1;
                        out[i] = Some(Rc::clone(hit));
                    } else if let Some(&(slot, will_insert)) = in_flight.get(&key) {
                        // Scalar would find the first execution's insert
                        // (hit) — or, past the cap, miss and re-execute;
                        // the engine work is shared either way, only the
                        // counter differs.
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
                    let batch =
                        plan.execute_batch_stats(self.shared.db, &pending, &mut self.eval)?;
                    self.stats.batches_executed += 1;
                    self.stats.bindings_per_batch_max =
                        self.stats.bindings_per_batch_max.max(pending.len());
                    self.stats.rows_regrouped += batch.total_rows();
                    let rels: Vec<Rc<Relation>> =
                        batch.into_relations().into_iter().map(Rc::new).collect();
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
                return Ok(out
                    .into_iter()
                    .map(|r| r.expect("every env is memo-served or batched"))
                    .collect());
            }
        }
        // Interpreter fallback: per environment, identical to the scalar
        // path (no batch counters — nothing was batched).
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
        Ok(rels)
    }
}

/// Trace reconstruction is arena-only: the streaming sink never traces
/// (the materializing fallback handles traced publishes).
impl BatchWorker<'_, Document> {
    /// Reconstructs the scalar path's pre-order trace from the finished
    /// window fragment: indexed paths from per-level same-tag sibling
    /// counts, provenance from the map filled at element creation.
    fn build_trace(&self, window: &[Root]) -> Vec<TraceEntry> {
        let mut entries = Vec::new();
        let mut path: Vec<String> = Vec::new();
        let mut counts: Vec<HashMap<String, usize>> = vec![sibling_seed(window)];
        self.walk_trace(self.doc.root(), &mut path, &mut counts, &mut entries);
        entries
    }

    fn walk_trace(
        &self,
        node: xvc_xml::NodeId,
        path: &mut Vec<String>,
        counts: &mut Vec<HashMap<String, usize>>,
        entries: &mut Vec<TraceEntry>,
    ) {
        for &child in self.doc.children(node) {
            let Some(tag) = self.doc.name(child) else {
                continue;
            };
            let level = counts.last_mut().expect("counts is never empty");
            let n = level.entry(tag.to_owned()).or_insert(0);
            *n += 1;
            path.push(format!("{tag}[{n}]"));
            counts.push(HashMap::new());
            if let Some((vid, env)) = self.prov.get(&child) {
                entries.push(TraceEntry {
                    path: format!("/{}", path.join("/")),
                    view: *vid,
                    env: (**env).clone(),
                });
            }
            self.walk_trace(child, path, counts, entries);
            path.pop();
            counts.pop();
        }
    }
}

/// Per-window publishing state of the scalar reference walk: its own
/// builder, counters, trace slice and result memo (memoization is
/// window-scoped so statistics cannot depend on how windows are spread
/// over threads).
struct Worker<'a> {
    shared: &'a Shared<'a>,
    builder: TreeBuilder,
    stats: PublishStats,
    eval: EvalStats,
    trace: Vec<TraceEntry>,
    /// Indexed path segments of currently open elements.
    path: Vec<String>,
    /// Per open level: same-tag sibling counts emitted so far (the
    /// window's base level is the first entry).
    sibling_counts: Vec<HashMap<String, usize>>,
    /// [`memo_key`] → relation.
    memo: HashMap<String, Rc<Relation>>,
}

impl<'a> Worker<'a> {
    fn new(shared: &'a Shared<'a>, seed_counts: HashMap<String, usize>) -> Self {
        Worker {
            shared,
            builder: TreeBuilder::new(),
            stats: PublishStats::default(),
            eval: EvalStats::default(),
            trace: Vec::new(),
            path: Vec::new(),
            sibling_counts: vec![seed_counts],
            memo: HashMap::new(),
        }
    }

    /// Executes a node's tag query (or guard probe): through its cached
    /// prepared plan and the result memo when available, else through the
    /// interpreter.
    fn run_tag_query(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &SelectQuery,
        env: &ParamEnv,
    ) -> Result<Rc<Relation>> {
        let plan_key = (vid.index() as u32, role);
        if self.shared.use_plans {
            if let Some(PlanEntry::Ready(plan)) = self.shared.plans.get(&plan_key) {
                let mut key = String::new();
                if memo_key(&mut key, plan_key, plan.slots(), env) {
                    if let Some(hit) = self.memo.get(&key) {
                        self.stats.memo_hits += 1;
                        return Ok(Rc::clone(hit));
                    }
                    let rel = Rc::new(plan.execute_stats(self.shared.db, env, &mut self.eval)?);
                    self.stats.memo_misses += 1;
                    if self.memo.len() < MEMO_CAP {
                        self.memo.insert(key, Rc::clone(&rel));
                    }
                    return Ok(rel);
                }
                return Ok(Rc::new(plan.execute_stats(
                    self.shared.db,
                    env,
                    &mut self.eval,
                )?));
            }
        }
        Ok(Rc::new(eval_query_stats(
            self.shared.db,
            q,
            env,
            EvalOptions::default(),
            &mut self.eval,
        )?))
    }

    /// Opens an element, maintaining the indexed path and trace.
    fn open(&mut self, tag: &str, vid: ViewNodeId, env: &ParamEnv) {
        self.builder.open(tag);
        self.stats.elements += 1;
        let level = self
            .sibling_counts
            .last_mut()
            .expect("sibling_counts is never empty");
        let n = level.entry(tag.to_owned()).or_insert(0);
        *n += 1;
        self.path.push(format!("{tag}[{n}]"));
        self.sibling_counts.push(HashMap::new());
        if self.shared.tracing {
            self.trace.push(TraceEntry {
                path: format!("/{}", self.path.join("/")),
                view: vid,
                env: env.clone(),
            });
        }
    }

    fn close(&mut self) {
        self.builder.close();
        self.path.pop();
        self.sibling_counts.pop();
    }

    fn emit_attr(&mut self, name: &str, value: String) {
        self.builder.attr(name, value);
        self.stats.attributes += 1;
    }

    fn emit_static_attrs(&mut self, vid: ViewNodeId) {
        let node = self.shared.tree.node(vid).expect("caller validated vid");
        for (k, v) in node.static_attrs.clone() {
            self.emit_attr(&k, v);
        }
    }

    /// Emits projected tuple columns as attributes (see [`project_attrs`]).
    fn emit_tuple_attrs(
        &mut self,
        attrs: &AttrProjection,
        columns: &[String],
        values: &[xvc_rel::Value],
    ) {
        for (c, v) in project_attrs(attrs, columns, values) {
            self.emit_attr(c, v.render());
        }
    }

    /// Publishes one already-guarded element instance: the entry point of a
    /// window's root instances (guards of root children run in the root
    /// pass).
    fn emit_instance(
        &mut self,
        vid: ViewNodeId,
        env: &ParamEnv,
        tuple: Option<&NamedTuple>,
    ) -> Result<()> {
        let tree = self.shared.tree;
        let node = tree.node(vid).expect("non-root id");

        if let Some(var) = &node.context_tuple_of {
            self.open(&node.tag, vid, env);
            self.emit_static_attrs(vid);
            let mut child_env = env.clone();
            if let Some(t) = env.get(var) {
                let t = t.clone();
                self.emit_tuple_attrs(&node.attrs.clone(), &t.columns, &t.values);
                if !node.bv.is_empty() {
                    child_env.insert(node.bv.clone(), t);
                }
            }
            for &child in tree.children(vid) {
                self.publish_node(child, &child_env)?;
            }
            self.close();
            return Ok(());
        }

        match (&node.query, tuple) {
            (Some(_), Some(t)) => {
                self.open(&node.tag, vid, env);
                self.emit_static_attrs(vid);
                self.emit_tuple_attrs(&node.attrs.clone(), &t.columns, &t.values);
                if !tree.children(vid).is_empty() {
                    let mut child_env = env.clone();
                    child_env.insert(node.bv.clone(), t.clone());
                    for &child in tree.children(vid) {
                        self.publish_node(child, &child_env)?;
                    }
                }
                self.close();
            }
            (None, _) => {
                self.open(&node.tag, vid, env);
                self.emit_static_attrs(vid);
                for &child in tree.children(vid) {
                    self.publish_node(child, env)?;
                }
                self.close();
            }
            (Some(_), None) => unreachable!("query-node roots always carry a tuple"),
        }
        Ok(())
    }

    /// Full per-node logic (guard, context copy, literal, query) for
    /// non-root-level descendants.
    fn publish_node(&mut self, vid: ViewNodeId, env: &ParamEnv) -> Result<()> {
        let tree = self.shared.tree;
        let node = tree
            .node(vid)
            .expect("publish_node is never called on root");

        // Emission guard: `SELECT 1 WHERE guard` over the current bindings.
        if let Some(guard) = &node.guard {
            let probe = guard_probe(guard);
            self.stats.queries_run += 1;
            if self
                .run_tag_query(vid, Role::Guard, &probe, env)?
                .is_empty()
            {
                return Ok(());
            }
        }

        if node.context_tuple_of.is_some() || node.query.is_none() {
            return self.emit_instance(vid, env, None);
        }

        let query = node.query.as_ref().expect("query node");
        let rel = self.run_tag_query(vid, Role::Tag, query, env)?;
        self.stats.queries_run += 1;
        self.stats.tuples_fetched += rel.len();
        for i in 0..rel.len() {
            self.emit_instance(vid, env, Some(&rel.tuple(i)))?;
        }
        Ok(())
    }
}

/// Writes into `key` the memo key for one execution: the plan's node and
/// role, then the rendered values of every binding slot the plan actually
/// reads. Returns `false` (memo bypass) when a slot cannot be resolved —
/// the execution then reports the unbound parameter itself. Callers reuse
/// one buffer across bindings and copy it only into memo entries.
fn memo_key(
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
/// scalar and the batched worker emit through this, so their attribute
/// output cannot drift apart.
fn project_attrs<'c>(
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
        let prepared = Engine::new(&tree)
            .batched(false)
            .session()
            .publish(&db)
            .unwrap();
        let interpreted = Engine::new(&tree)
            .prepared(false)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(prepared.document.to_xml(), interpreted.document.to_xml());
        assert_eq!(prepared.eval, interpreted.eval);
        assert_eq!(interpreted.stats.plans_prepared, 0);
    }

    #[test]
    fn batched_and_scalar_paths_agree() {
        let tree = view();
        let db = db();
        let scalar = Engine::new(&tree)
            .batched(false)
            .traced(true)
            .session()
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
        // Without prepared plans there is nothing to batch: the frontier
        // walk degenerates to per-parent interpretation and even the
        // engine counters must be identical.
        let tree = view();
        let db = db();
        let scalar = Engine::new(&tree)
            .prepared(false)
            .batched(false)
            .session()
            .publish(&db)
            .unwrap();
        let batched = Engine::new(&tree)
            .prepared(false)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(batched.document.to_xml(), scalar.document.to_xml());
        assert_eq!(batched.eval, scalar.eval);
        assert_eq!(batched.stats, scalar.stats);
        assert_eq!(batched.stats.batches_executed, 0);
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
        let unbounded = Engine::new(&tree)
            .bounded(false)
            .traced(true)
            .session()
            .publish(&db)
            .unwrap();
        assert_eq!(bounded.document.to_xml(), unbounded.document.to_xml());
        let (bt, ut) = (bounded.trace.unwrap(), unbounded.trace.unwrap());
        assert_eq!(bt.entries.len(), ut.entries.len());
        for (b, u) in bt.entries.iter().zip(&ut.entries) {
            assert_eq!(b.path, u.path);
            assert_eq!(b.env, u.env);
        }
        assert_eq!(bounded.stats, unbounded.stats);
        // Scans and query counts agree; the shared pipeline's regroup
        // hash builds (one per batch) are what the bound saves.
        assert_eq!(bounded.eval.queries, unbounded.eval.queries);
        assert_eq!(bounded.eval.rows_scanned, unbounded.eval.rows_scanned);
        assert_eq!(bounded.eval.hash_join_builds, 0, "{:?}", bounded.eval);
        assert_eq!(unbounded.eval.hash_join_builds, 2, "{:?}", unbounded.eval);
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
        // Document content identical to the interpreter's.
        let i = Engine::new(&t)
            .prepared(false)
            .session()
            .publish(&database)
            .unwrap();
        assert_eq!(p.document.to_xml(), i.document.to_xml());
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
            let s = Engine::new(&t)
                .batched(false)
                .parallel(threads)
                .session()
                .publish(&database)
                .unwrap();
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
        let s = Engine::new(&t)
            .batched(false)
            .parallel(4)
            .session()
            .publish(&wide)
            .unwrap();
        assert_eq!(par.stats.without_batch_counters(), s.stats);
        assert_eq!(par.document.to_xml(), s.document.to_xml());
    }
}
