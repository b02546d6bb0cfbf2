//! The tuple-at-a-time reference publisher: Definition 1 read literally,
//! one tag-query run per parent tuple, in document order.
//!
//! Nothing in the runtime calls this module — [`crate::Engine`] always
//! publishes through the windowed frontier walk. It exists so tests,
//! property tests and benchmark studies have an independent oracle to
//! compare that walk against. For the comparison to cover counters as
//! well as documents and traces, [`Reference`] keeps the engine's
//! accounting where the two are defined alike:
//!
//! - plans are compiled once per reference instance (again only when the
//!   catalog changes) and counted as `plans_prepared` / `plan_cache_hits`
//!   the way a fresh engine counts them;
//! - the result memo is scoped to the same windows of
//!   [`crate::ROOT_WINDOW`] root instances.
//!
//! So for one database, an engine publish's
//! [`PublishStats::without_batch_counters`] equals the reference's stats.
//! [`Reference::interpreted`] drives every query through the interpreter
//! instead, with no plans and no memo.
//!
//! ```no_run
//! # use xvc_view::{reference::Reference, Engine, SchemaTree};
//! # use xvc_rel::Database;
//! # fn demo(tree: &SchemaTree, db: &Database) -> xvc_view::Result<()> {
//! let engine = Engine::new(tree).session().publish(db)?;
//! let oracle = Reference::prepared(tree).publish(db)?;
//! assert_eq!(engine.document.to_xml(), oracle.document.to_xml());
//! assert_eq!(engine.stats.without_batch_counters(), oracle.stats);
//! # Ok(()) }
//! ```

use std::collections::HashMap;
use std::rc::Rc;

use xvc_rel::{eval_query_stats, Database, EvalOptions, EvalStats, NamedTuple, ParamEnv, Relation};
use xvc_xml::TreeBuilder;

use crate::error::Result;
use crate::publish::{
    guard_probe, memo_key, project_attrs, PlanCache, PlanEntry, PlanKey, PublishStats,
    PublishTrace, Published, Role, TraceRec, MEMO_CAP,
};
use crate::schema_tree::{SchemaTree, ViewNodeId};
use crate::ROOT_WINDOW;

/// The reference publisher for one schema tree. See the module docs.
#[derive(Debug)]
pub struct Reference {
    tree: SchemaTree,
    /// Compiled plans; `None` interprets every query.
    plans: Option<PlanCache>,
    tracing: bool,
}

impl Reference {
    /// A reference walk over `tree` that runs each tag query through its
    /// prepared plan (compiled on the first publish, with the engine's
    /// compiler) and memoizes per window, as the engine does. A query that
    /// fails to prepare is interpreted.
    pub fn prepared(tree: &SchemaTree) -> Self {
        Reference {
            tree: tree.clone(),
            plans: Some(PlanCache::default()),
            tracing: false,
        }
    }

    /// A reference walk over `tree` that interprets every query
    /// ([`xvc_rel::eval_query_stats`]), with no plans and no memo.
    pub fn interpreted(tree: &SchemaTree) -> Self {
        Reference {
            tree: tree.clone(),
            plans: None,
            tracing: false,
        }
    }

    /// Record per-element provenance ([`Published::trace`]).
    #[must_use]
    pub fn traced(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Publishes `v(I)` one tag-query run per parent tuple. The result
    /// carries no splice index, and its batch counters are zero.
    pub fn publish(&mut self, db: &Database) -> Result<Published> {
        self.tree.validate()?;
        let mut stats = PublishStats::default();
        if let Some(cache) = &mut self.plans {
            cache.fill(&self.tree, db, &mut stats);
        }
        let no_plans = HashMap::new();
        let mut w = Walker {
            tree: &self.tree,
            db,
            plans: self.plans.as_ref().map_or(&no_plans, |c| &c.plans),
            builder: TreeBuilder::new(),
            stats,
            eval: EvalStats::default(),
            trace: self.tracing.then(TraceRec::new),
            memo: HashMap::new(),
        };

        // Root-level guards and tag queries run first; the memo then
        // starts afresh with every window of root instances.
        let env = ParamEnv::new();
        let mut roots: Vec<(ViewNodeId, Option<NamedTuple>)> = Vec::new();
        for &child in self.tree.children(self.tree.root()) {
            let node = self.tree.node(child).expect("non-root id");
            if let Some(guard) = &node.guard {
                w.stats.queries_run += 1;
                if w.run(child, Role::Guard, &guard_probe(guard), &env)?
                    .is_empty()
                {
                    continue;
                }
            }
            match &node.query {
                Some(q) if node.context_tuple_of.is_none() => {
                    let rel = w.run(child, Role::Tag, q, &env)?;
                    w.stats.queries_run += 1;
                    w.stats.tuples_fetched += rel.len();
                    roots.extend((0..rel.len()).map(|i| (child, Some(rel.tuple(i)))));
                }
                _ => roots.push((child, None)),
            }
        }
        for (i, (vid, tuple)) in roots.iter().enumerate() {
            if i % ROOT_WINDOW == 0 {
                w.memo.clear();
            }
            w.emit_instance(*vid, &env, tuple.as_ref())?;
        }

        Ok(Published {
            document: w.builder.finish(),
            stats: w.stats,
            eval: w.eval,
            trace: w.trace.map(|t| PublishTrace { entries: t.entries }),
            splice: None,
            reexecuted: Vec::new(),
        })
    }
}

/// State of one reference publish.
struct Walker<'a> {
    tree: &'a SchemaTree,
    db: &'a Database,
    plans: &'a HashMap<PlanKey, PlanEntry>,
    builder: TreeBuilder,
    stats: PublishStats,
    eval: EvalStats,
    trace: Option<TraceRec>,
    /// [`memo_key`] → relation, cleared at every window boundary.
    memo: HashMap<String, Rc<Relation>>,
}

impl Walker<'_> {
    /// Executes a node's tag query (or guard probe) under one environment:
    /// through its prepared plan and the result memo when it has a plan,
    /// else through the interpreter.
    fn run(
        &mut self,
        vid: ViewNodeId,
        role: Role,
        q: &xvc_rel::SelectQuery,
        env: &ParamEnv,
    ) -> Result<Rc<Relation>> {
        let plan_key = (vid.index() as u32, role);
        let Some(PlanEntry::Ready(plan)) = self.plans.get(&plan_key) else {
            return Ok(Rc::new(eval_query_stats(
                self.db,
                q,
                env,
                EvalOptions::default(),
                &mut self.eval,
            )?));
        };
        let mut key = String::new();
        if !memo_key(&mut key, plan_key, plan.slots(), env) {
            return Ok(Rc::new(plan.execute_stats(self.db, env, &mut self.eval)?));
        }
        if let Some(hit) = self.memo.get(&key) {
            self.stats.memo_hits += 1;
            return Ok(Rc::clone(hit));
        }
        let rel = Rc::new(plan.execute_stats(self.db, env, &mut self.eval)?);
        self.stats.memo_misses += 1;
        if self.memo.len() < MEMO_CAP {
            self.memo.insert(key, Rc::clone(&rel));
        }
        Ok(rel)
    }

    fn open(&mut self, tag: &str, vid: ViewNodeId, env: &ParamEnv) {
        self.builder.open(tag);
        self.stats.elements += 1;
        if let Some(t) = &mut self.trace {
            t.open(tag, Some((vid, env)));
        }
    }

    fn close(&mut self) {
        self.builder.close();
        if let Some(t) = &mut self.trace {
            t.close();
        }
    }

    fn emit_attr(&mut self, name: &str, value: String) {
        self.builder.attr(name, value);
        self.stats.attributes += 1;
    }

    /// Publishes one already-guarded element instance of `vid` — a tuple
    /// of its tag query, or the single instance of a literal or
    /// context-copy node — and, recursively, its subtree.
    fn emit_instance(
        &mut self,
        vid: ViewNodeId,
        env: &ParamEnv,
        tuple: Option<&NamedTuple>,
    ) -> Result<()> {
        let tree = self.tree;
        let node = tree.node(vid).expect("non-root id");
        self.open(&node.tag, vid, env);
        for (k, v) in &node.static_attrs {
            self.emit_attr(k, v.clone());
        }
        // A context copy shows (and rebinds) its context variable's tuple.
        let (shown, binds) = match &node.context_tuple_of {
            Some(var) => (env.get(var), !node.bv.is_empty()),
            None => (tuple, true),
        };
        let mut child_env = env.clone();
        if let Some(t) = shown {
            for (c, v) in project_attrs(&node.attrs, &t.columns, &t.values) {
                self.emit_attr(c, v.render());
            }
            if binds {
                child_env.insert(node.bv.clone(), t.clone());
            }
        }
        for &child in tree.children(vid) {
            self.publish_node(child, &child_env)?;
        }
        self.close();
        Ok(())
    }

    /// Full per-node logic (guard, context copy, literal, query) below the
    /// root level: one tag-query run under this parent's bindings.
    fn publish_node(&mut self, vid: ViewNodeId, env: &ParamEnv) -> Result<()> {
        let node = self
            .tree
            .node(vid)
            .expect("publish_node is never called on root");
        if let Some(guard) = &node.guard {
            self.stats.queries_run += 1;
            if self
                .run(vid, Role::Guard, &guard_probe(guard), env)?
                .is_empty()
            {
                return Ok(());
            }
        }
        let Some(query) = node
            .query
            .as_ref()
            .filter(|_| node.context_tuple_of.is_none())
        else {
            return self.emit_instance(vid, env, None);
        };
        let rel = self.run(vid, Role::Tag, query, env)?;
        self.stats.queries_run += 1;
        self.stats.tuples_fetched += rel.len();
        for i in 0..rel.len() {
            self.emit_instance(vid, env, Some(&rel.tuple(i)))?;
        }
        Ok(())
    }
}
