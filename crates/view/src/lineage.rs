//! Key lineage for delta republishing: which parent instances a changed
//! row can reach.
//!
//! A composed tag query is parameterized by its parent's binding
//! (`customer_id = $c.id`). When a node `A` reads a changed table `T` only
//! through such an equality, a row of `T` can change `A`'s result only
//! under the parents whose `$c.id` equals the row's `customer_id`, so
//! [`crate::Session::republish_delta`] re-runs `A` under those parents
//! alone. The rule is deliberately narrow; a node is *targeted* for `T`
//! only when
//!
//! * `T` occurs exactly once in `A`'s tag query, counting derived tables
//!   and `EXISTS` subqueries in every clause,
//! * that occurrence is a top-level FROM item,
//! * `T.col = $v.c` (either side) is a top-level conjunct of the WHERE
//!   clause, and
//! * `A`'s emission guard does not read `T`.
//!
//! Every output row of `A` under a parent then carries a `T` row with
//! `T.col = $v.c`, and aggregation, grouping and left-outer padding only
//! ever see the rows that pass that conjunct, so the result under a parent
//! is a function of the `T` rows keyed to it. Per delta,
//! [`Lineage::key_filter`] adds the conditions that need the delta: no
//! proper descendant of `A` reads a changed table, every changed table `A`
//! reads is targeted, and no delta row carries a NULL key. Otherwise `A`
//! is re-run under every parent, as before.

use std::collections::{BTreeMap, HashSet};

use xvc_rel::{BinOp, Database, Delta, JoinKey, ParamEnv, ScalarExpr, SelectQuery, TableRef};

use crate::schema_tree::{SchemaTree, ViewNodeId};
use crate::table_deps::{visit_expr_tables, visit_query_tables, TableDeps};

/// One `T.col = $var.param` conjunct that keys a node's reads of `T`.
#[derive(Debug, Clone)]
struct KeyLink {
    /// The column of `T` the conjunct compares.
    column: String,
    /// For an unqualified `col`, the node's other FROM tables: `col` is
    /// `T`'s only if none of them has a column of that name, which needs
    /// the catalog, so [`Lineage::key_filter`] checks it. Empty when the
    /// reference is qualified.
    peers: Vec<String>,
    var: String,
    param: String,
}

/// The table-level dependency map plus each node's key links, computed
/// once per [`crate::Engine`] (both depend only on the schema tree).
#[derive(Debug, Clone, Default)]
pub(crate) struct Lineage {
    pub(crate) deps: TableDeps,
    /// Node arena index → table → the link targeting reads of it.
    links: BTreeMap<usize, BTreeMap<String, KeyLink>>,
}

/// The parent instances a re-run node is seeded under: those whose
/// bindings equal (by [`JoinKey`]) a key of some delta row, for any of
/// the node's changed tables.
#[derive(Debug)]
pub(crate) struct KeyFilter {
    /// `(var, column, keys)` per changed table the node reads.
    probes: Vec<(String, String, HashSet<JoinKey>)>,
}

impl KeyFilter {
    /// Whether a parent whose children run under `env` can see a delta
    /// row. A binding the environment cannot resolve counts as reached
    /// (the re-run reports the unbound parameter, as a full publish would).
    pub(crate) fn reaches(&self, env: &ParamEnv) -> bool {
        self.probes.iter().any(|(var, column, keys)| {
            match env.get(var).and_then(|t| t.get(column)) {
                Some(v) => JoinKey::of(v).is_some_and(|k| keys.contains(&k)),
                None => true,
            }
        })
    }
}

impl Lineage {
    /// Analyzes every node of `tree`.
    pub(crate) fn analyze(tree: &SchemaTree) -> Lineage {
        let deps = TableDeps::analyze(tree);
        let mut links = BTreeMap::new();
        for vid in tree.node_ids() {
            let node = tree.node(vid).expect("non-root id");
            let (Some(q), None) = (&node.query, &node.context_tuple_of) else {
                continue;
            };
            let mut guard_tables = HashSet::new();
            if let Some(g) = &node.guard {
                visit_expr_tables(g, &mut |t| {
                    guard_tables.insert(t.to_owned());
                });
            }
            let node_links: BTreeMap<String, KeyLink> = deps
                .tables_of(vid)
                .into_iter()
                .flatten()
                .filter(|t| !guard_tables.contains(*t))
                .filter_map(|t| Some((t.clone(), key_link(q, t)?)))
                .collect();
            if !node_links.is_empty() {
                links.insert(vid.index(), node_links);
            }
        }
        Lineage { deps, links }
    }

    /// The filter `top` is seeded under for `delta` against the post-delta
    /// `db`, or `None` when it must be re-run under every parent.
    pub(crate) fn key_filter(
        &self,
        tree: &SchemaTree,
        top: ViewNodeId,
        delta: &Delta,
        db: &Database,
    ) -> Option<KeyFilter> {
        let links = self.links.get(&top.index())?;
        let changed = delta.tables_changed();
        let reads_changed = |v: ViewNodeId| {
            self.deps
                .tables_of(v)
                .is_some_and(|ts| changed.iter().any(|t| ts.contains(*t)))
        };
        let mut stack: Vec<ViewNodeId> = tree.children(top).to_vec();
        while let Some(v) = stack.pop() {
            if reads_changed(v) {
                return None;
            }
            stack.extend_from_slice(tree.children(v));
        }
        let mut probes = Vec::new();
        for table in changed {
            if !self.deps.tables_of(top)?.contains(table) {
                continue;
            }
            let link = links.get(table)?;
            let column = db.table(table).ok()?.schema.column_index(&link.column)?;
            for peer in &link.peers {
                if db
                    .table(peer)
                    .ok()?
                    .schema
                    .column_index(&link.column)
                    .is_some()
                {
                    return None;
                }
            }
            let rows = &delta.tables[table];
            let keys = rows
                .inserted
                .iter()
                .chain(&rows.deleted)
                .map(|row| JoinKey::of(row.get(column)?))
                .collect::<Option<HashSet<JoinKey>>>()?;
            probes.push((link.var.clone(), link.param.clone(), keys));
        }
        Some(KeyFilter { probes })
    }
}

/// The key link of `q`'s reads of `table`, if the targeting rule holds
/// (see the module docs).
fn key_link(q: &SelectQuery, table: &str) -> Option<KeyLink> {
    let mut occurrences = 0;
    visit_query_tables(q, &mut |t| occurrences += usize::from(t == table));
    if occurrences != 1 {
        return None;
    }
    let ref_name = |item: &TableRef| match item {
        TableRef::Named { name, alias } => alias.as_deref().unwrap_or(name).to_owned(),
        TableRef::Derived { alias, .. } => alias.clone(),
    };
    let item = q
        .from
        .iter()
        .find(|i| matches!(i, TableRef::Named { name, .. } if name == table))?;
    let own = ref_name(item);
    if q.from.iter().filter(|i| ref_name(i) == own).count() != 1 {
        return None;
    }
    let mut conjuncts = Vec::new();
    split_and(q.where_clause.as_ref()?, &mut conjuncts);
    conjuncts.into_iter().find_map(|c| {
        let ScalarExpr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = c
        else {
            return None;
        };
        let (col, param) = match (&**lhs, &**rhs) {
            (ScalarExpr::Column { qualifier, name }, ScalarExpr::Param { var, column })
            | (ScalarExpr::Param { var, column }, ScalarExpr::Column { qualifier, name }) => {
                ((qualifier, name), (var, column))
            }
            _ => return None,
        };
        let peers = match col.0 {
            Some(qual) if *qual == own => Vec::new(),
            Some(_) => return None,
            None => {
                let mut peers = Vec::new();
                for other in q.from.iter().filter(|i| !std::ptr::eq(*i, item)) {
                    match other {
                        TableRef::Named { name, .. } => peers.push(name.clone()),
                        TableRef::Derived { .. } => return None,
                    }
                }
                peers
            }
        };
        Some(KeyLink {
            column: col.1.clone(),
            peers,
            var: param.0.clone(),
            param: param.1.clone(),
        })
    })
}

/// Pushes the top-level conjuncts of `e` (its `AND` tree's leaves).
fn split_and<'e>(e: &'e ScalarExpr, out: &mut Vec<&'e ScalarExpr>) {
    match e {
        ScalarExpr::Binary {
            op: BinOp::And,
            lhs,
            rhs,
        } => {
            split_and(lhs, out);
            split_and(rhs, out);
        }
        _ => out.push(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xvc_rel::parse_query;

    fn link(sql: &str, table: &str) -> Option<(String, Vec<String>, String, String)> {
        key_link(&parse_query(sql).unwrap(), table).map(|l| (l.column, l.peers, l.var, l.param))
    }

    #[test]
    fn links_need_one_keyed_top_level_occurrence() {
        let own = |col: &str, peers: &[&str]| {
            Some((
                col.to_owned(),
                peers.iter().map(|p| (*p).to_owned()).collect(),
                "c".to_owned(),
                "id".to_owned(),
            ))
        };
        // Either side, qualified by alias or table name, or unqualified
        // (with the other FROM tables left for the catalog check).
        assert_eq!(
            link("SELECT id FROM orders WHERE customer_id = $c.id", "orders"),
            own("customer_id", &[])
        );
        assert_eq!(
            link(
                "SELECT o.id FROM orders o WHERE $c.id = o.customer_id",
                "orders"
            ),
            own("customer_id", &[])
        );
        assert_eq!(
            link(
                "SELECT total FROM orders, item WHERE customer_id = $c.id AND item_id = iid",
                "orders"
            ),
            own("customer_id", &["item"])
        );
        // A qualifier naming another item, a derived item beside an
        // unqualified key, a non-equality, and a key only under OR.
        assert!(link(
            "SELECT id FROM orders, item WHERE item.customer_id = $c.id",
            "orders"
        )
        .is_none());
        assert!(link(
            "SELECT id FROM orders, (SELECT iid FROM item) AS d WHERE customer_id = $c.id",
            "orders"
        )
        .is_none());
        assert!(link("SELECT id FROM orders WHERE customer_id > $c.id", "orders").is_none());
        assert!(link(
            "SELECT id FROM orders WHERE customer_id = $c.id OR id = 1",
            "orders"
        )
        .is_none());
        // Read twice, or only inside a derived table.
        assert!(link(
            "SELECT a.id FROM orders a, orders b WHERE a.customer_id = $c.id",
            "orders"
        )
        .is_none());
        assert!(link(
            "SELECT id FROM (SELECT id, customer_id FROM orders) AS d WHERE customer_id = $c.id",
            "orders"
        )
        .is_none());
    }
}
