//! Conservative table → view-node dependency map over a [`SchemaTree`].
//!
//! `Session::republish_delta` needs to know, given a set of mutated base
//! tables, which view nodes could possibly publish differently. This map
//! answers that *conservatively*: a node depends on every table its tag
//! query or emission guard mentions anywhere (FROM items, derived tables,
//! `EXISTS` subqueries). Nodes that only consume an ancestor's binding are
//! covered structurally — the delta path always re-executes whole subtrees
//! below an affected node, so transitive binding flow needs no edges here.
//!
//! The *fine-grained* analysis — per-column roles, update-safety classes,
//! fact chains — lives in `xvc_core::deps`, which can see the composed TVQ;
//! this module is deliberately the small, dependency-free core the
//! publisher itself can trust (`xvc_core` depends on this crate, not the
//! other way around).

use std::collections::{BTreeMap, BTreeSet};

use xvc_rel::{ScalarExpr, SelectQuery, TableRef};

use crate::schema_tree::{SchemaTree, ViewNodeId};

/// Which base tables each view node reads (conservatively).
#[derive(Debug, Clone, Default)]
pub struct TableDeps {
    /// node arena index → tables its tag query / guard mentions.
    per_node: BTreeMap<usize, BTreeSet<String>>,
}

impl TableDeps {
    /// Walks every node's tag query and guard, collecting mentioned tables.
    pub fn analyze(tree: &SchemaTree) -> TableDeps {
        let mut per_node = BTreeMap::new();
        for vid in tree.node_ids() {
            let node = tree.node(vid).expect("non-root id");
            let mut tables = BTreeSet::new();
            let mut add = |name: &str| {
                tables.insert(name.to_owned());
            };
            if let Some(q) = &node.query {
                visit_query_tables(q, &mut add);
            }
            if let Some(g) = &node.guard {
                visit_expr_tables(g, &mut add);
            }
            per_node.insert(vid.index(), tables);
        }
        TableDeps { per_node }
    }

    /// The tables a node reads.
    pub fn tables_of(&self, vid: ViewNodeId) -> Option<&BTreeSet<String>> {
        self.per_node.get(&vid.index())
    }

    /// Node indexes (ascending) whose queries or guards mention any of
    /// `tables`.
    pub fn affected_by(&self, tables: &[&str]) -> BTreeSet<usize> {
        self.per_node
            .iter()
            .filter(|(_, deps)| tables.iter().any(|t| deps.contains(*t)))
            .map(|(&idx, _)| idx)
            .collect()
    }

    /// Every table read by at least one node.
    pub fn tables_read(&self) -> BTreeSet<&str> {
        self.per_node
            .values()
            .flat_map(|s| s.iter().map(String::as_str))
            .collect()
    }
}

/// Calls `f` once per named table occurrence in `q`: FROM items, derived
/// tables, and `EXISTS` subqueries in any clause.
pub(crate) fn visit_query_tables(q: &SelectQuery, f: &mut impl FnMut(&str)) {
    for item in &q.from {
        match item {
            TableRef::Named { name, .. } => f(name),
            TableRef::Derived { query, .. } => visit_query_tables(query, f),
        }
    }
    for item in &q.select {
        if let xvc_rel::SelectItem::Expr { expr, .. } = item {
            visit_expr_tables(expr, f);
        }
    }
    if let Some(w) = &q.where_clause {
        visit_expr_tables(w, f);
    }
    for e in &q.group_by {
        visit_expr_tables(e, f);
    }
    if let Some(h) = &q.having {
        visit_expr_tables(h, f);
    }
}

/// Calls `f` once per named table occurrence in the `EXISTS` subqueries
/// nested in a scalar expression.
pub(crate) fn visit_expr_tables(e: &ScalarExpr, f: &mut impl FnMut(&str)) {
    match e {
        ScalarExpr::Binary { lhs, rhs, .. } => {
            visit_expr_tables(lhs, f);
            visit_expr_tables(rhs, f);
        }
        ScalarExpr::Not(inner) | ScalarExpr::IsNull(inner) => visit_expr_tables(inner, f),
        ScalarExpr::Exists(q) => visit_query_tables(q, f),
        ScalarExpr::Aggregate { arg, .. } => {
            if let Some(a) = arg {
                visit_expr_tables(a, f);
            }
        }
        ScalarExpr::Column { .. } | ScalarExpr::Param { .. } | ScalarExpr::Literal(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_tree::ViewNode;
    use xvc_rel::parse_query;

    fn tree() -> SchemaTree {
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid FROM metroarea").unwrap(),
            ))
            .unwrap();
        t.add_child(
            metro,
            ViewNode::new(
                2,
                "hotel",
                "h",
                parse_query("SELECT * FROM hotel WHERE metro_id=$m.metroid").unwrap(),
            ),
        )
        .unwrap();
        t.add_child(metro, ViewNode::literal(3, "badge")).unwrap();
        t
    }

    #[test]
    fn maps_tables_to_nodes() {
        let t = tree();
        let deps = TableDeps::analyze(&t);
        let metro = t.find_by_paper_id(1).unwrap();
        let hotel = t.find_by_paper_id(2).unwrap();
        let badge = t.find_by_paper_id(3).unwrap();
        assert!(deps.tables_of(metro).unwrap().contains("metroarea"));
        assert!(deps.tables_of(hotel).unwrap().contains("hotel"));
        assert!(deps.tables_of(badge).unwrap().is_empty());
        assert_eq!(
            deps.affected_by(&["hotel"]),
            BTreeSet::from([hotel.index()])
        );
        assert!(deps.affected_by(&["nothing"]).is_empty());
        assert_eq!(deps.tables_read(), BTreeSet::from(["metroarea", "hotel"]));
    }

    #[test]
    fn sees_through_exists_guards_and_derived_tables() {
        use xvc_rel::{BinOp, ScalarExpr};
        let mut t = SchemaTree::new();
        let metro = t
            .add_root_node(ViewNode::new(
                1,
                "metro",
                "m",
                parse_query("SELECT metroid FROM (SELECT metroid FROM metroarea) AS d").unwrap(),
            ))
            .unwrap();
        let mut guarded = ViewNode::literal(2, "has_hotel");
        guarded.guard = Some(ScalarExpr::binary(
            BinOp::And,
            ScalarExpr::Exists(Box::new(
                parse_query("SELECT 1 FROM hotel WHERE metro_id=$m.metroid").unwrap(),
            )),
            ScalarExpr::int(1),
        ));
        t.add_child(metro, guarded).unwrap();
        let deps = TableDeps::analyze(&t);
        let m = t.find_by_paper_id(1).unwrap();
        let g = t.find_by_paper_id(2).unwrap();
        assert!(deps.tables_of(m).unwrap().contains("metroarea"));
        assert!(deps.tables_of(g).unwrap().contains("hotel"));
    }
}
