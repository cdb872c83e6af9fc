//! Dialect profiles: which SQL features a simulated DBMS accepts.
//!
//! A [`DialectProfile`] is the stand-in for a real DBMS's SQL dialect. The
//! underlying engine (`sql-engine`) implements the full feature set; the
//! profile *rejects* statements that use features outside the dialect,
//! producing exactly the "syntax/semantic error" feedback that the adaptive
//! generator learns from (challenge C1 of the paper).

use sql_ast::{
    BinaryOp, DataType, Expr, JoinType, ScalarFunction, Select, SelectItem, Statement, TableFactor,
    UnaryOp,
};
use sql_engine::TypingMode;
use std::collections::BTreeSet;

/// The feature-support matrix and behavioural quirks of one dialect.
#[derive(Debug, Clone, PartialEq)]
pub struct DialectProfile {
    /// Dialect name (matches the paper's Table 2 naming, lowercased).
    pub name: String,
    /// Typing discipline of the dialect.
    pub typing: TypingMode,
    /// Canonical feature names (see `sqlancer-core`'s naming convention)
    /// this dialect does **not** accept.
    pub unsupported: BTreeSet<String>,
    /// Inserted rows are only visible after `REFRESH TABLE` (CrateDB-like).
    pub requires_refresh: bool,
}

impl DialectProfile {
    /// A permissive dialect that accepts every feature (used as a baseline
    /// and in tests).
    pub fn permissive(name: impl Into<String>, typing: TypingMode) -> DialectProfile {
        DialectProfile {
            name: name.into(),
            typing,
            unsupported: BTreeSet::new(),
            requires_refresh: false,
        }
    }

    /// Marks a list of canonical feature names as unsupported.
    pub fn without(mut self, features: &[&str]) -> DialectProfile {
        for f in features {
            self.unsupported.insert((*f).to_string());
        }
        self
    }

    /// Whether the dialect supports a feature by canonical name.
    pub fn supports(&self, feature: &str) -> bool {
        !self.unsupported.contains(feature)
    }

    /// All canonical features of the generator universe this dialect
    /// supports (used by the perfect-knowledge baseline and Figure 7).
    pub fn supported_universe(&self) -> BTreeSet<String> {
        sqlancer_core::feature_universe()
            .into_iter()
            .map(|f| f.name().to_string())
            .filter(|f| self.supports(f))
            .collect()
    }

    /// Checks a parsed statement against the profile. Returns the name of
    /// the first unsupported feature encountered, if any.
    ///
    /// This runs for every statement on the campaign hot path, so it walks
    /// the AST with an early-exit visitor instead of materialising the
    /// feature list: nothing is allocated unless a feature is rejected or a
    /// data-dependent name (function, aggregate) must be formatted.
    pub fn first_unsupported(&self, stmt: &Statement) -> Option<String> {
        let mut found = None;
        walk_statement_features(stmt, &mut |feature| {
            if self.supports(feature) {
                true
            } else {
                found = Some(feature.to_string());
                false
            }
        });
        found
    }

    /// [`DialectProfile::first_unsupported`] for a bare query, without
    /// wrapping it in a [`Statement`]. Feature traversal order is identical
    /// to the statement path, so the reported feature (and therefore the
    /// error message) is byte-identical between the text path and the AST
    /// fast path.
    pub fn first_unsupported_select(&self, select: &Select) -> Option<String> {
        let mut found = None;
        walk_query_features(select, &mut |feature| {
            if self.supports(feature) {
                true
            } else {
                found = Some(feature.to_string());
                false
            }
        });
        found
    }
}

/// Collects the canonical feature names of a bare query, in the same order
/// as [`collect_statement_features`] applied to `Statement::Select`.
pub fn collect_query_features(select: &Select) -> Vec<String> {
    let mut out = Vec::new();
    walk_query_features(select, &mut |feature| {
        out.push(feature.to_string());
        true
    });
    out
}

/// Collects the canonical feature names used by a statement (statement kind,
/// clauses, join types, operators, functions, data types).
pub fn collect_statement_features(stmt: &Statement) -> Vec<String> {
    let mut out = Vec::new();
    walk_statement_features(stmt, &mut |feature| {
        out.push(feature.to_string());
        true
    });
    out
}

/// Walks every canonical feature name of a statement in collection order,
/// calling `f` for each; `f` returns `false` to stop the walk early. The
/// walker returns `false` when the walk was stopped.
fn walk_statement_features(stmt: &Statement, f: &mut impl FnMut(&str) -> bool) -> bool {
    if !f(stmt.feature_name()) {
        return false;
    }
    match stmt {
        Statement::CreateTable(create) => {
            for col in &create.columns {
                if !f(col.data_type.feature_name()) {
                    return false;
                }
                for c in &col.constraints {
                    let ok = match c {
                        sql_ast::ColumnConstraint::PrimaryKey => f("KW_PRIMARY_KEY"),
                        sql_ast::ColumnConstraint::NotNull => f("KW_NOT_NULL"),
                        sql_ast::ColumnConstraint::Unique => f("KW_UNIQUE"),
                        sql_ast::ColumnConstraint::Default(e) => {
                            f("KW_DEFAULT") && walk_expr_features(e, f)
                        }
                    };
                    if !ok {
                        return false;
                    }
                }
            }
            for c in &create.constraints {
                let ok = match c {
                    sql_ast::TableConstraint::PrimaryKey(_) => f("KW_PRIMARY_KEY"),
                    sql_ast::TableConstraint::Unique(_) => f("KW_UNIQUE"),
                };
                if !ok {
                    return false;
                }
            }
            true
        }
        Statement::CreateIndex(create) => {
            if create.unique && !f("KW_UNIQUE_INDEX") {
                return false;
            }
            match &create.where_clause {
                Some(w) => f("KW_PARTIAL_INDEX") && walk_expr_features(w, f),
                None => true,
            }
        }
        Statement::CreateView(create) => walk_select_features(&create.query, f),
        Statement::Insert(insert) => {
            if insert.or_ignore && !f("KW_OR_IGNORE") {
                return false;
            }
            for row in &insert.values {
                for e in row {
                    if !walk_expr_features(e, f) {
                        return false;
                    }
                }
            }
            true
        }
        Statement::Update(update) => {
            for (_, e) in &update.assignments {
                if !walk_expr_features(e, f) {
                    return false;
                }
            }
            match &update.where_clause {
                Some(w) => walk_expr_features(w, f),
                None => true,
            }
        }
        Statement::Delete(delete) => match &delete.where_clause {
            Some(w) => walk_expr_features(w, f),
            None => true,
        },
        Statement::Select(select) => walk_select_features(select, f),
        _ => true,
    }
}

/// Walks the features of a bare query: `STMT_SELECT` plus the select
/// features, in the statement walk's order.
fn walk_query_features(select: &Select, f: &mut impl FnMut(&str) -> bool) -> bool {
    f("STMT_SELECT") && walk_select_features(select, f)
}

fn walk_select_features(select: &Select, f: &mut impl FnMut(&str) -> bool) -> bool {
    if select.distinct && !f("CLAUSE_DISTINCT") {
        return false;
    }
    for item in &select.projections {
        if let SelectItem::Expr { expr, .. } = item {
            if !walk_expr_features(expr, f) {
                return false;
            }
        }
    }
    for twj in &select.from {
        if !walk_factor_features(&twj.relation, f) {
            return false;
        }
        for join in &twj.joins {
            if !f(join.join_type.feature_name()) || !walk_factor_features(&join.relation, f) {
                return false;
            }
            if let Some(on) = &join.on {
                if !walk_expr_features(on, f) {
                    return false;
                }
            }
        }
    }
    if let Some(w) = &select.where_clause {
        if !f("CLAUSE_WHERE") || !walk_expr_features(w, f) {
            return false;
        }
    }
    if !select.group_by.is_empty() {
        if !f("CLAUSE_GROUP_BY") {
            return false;
        }
        for g in &select.group_by {
            if !walk_expr_features(g, f) {
                return false;
            }
        }
    }
    if let Some(h) = &select.having {
        if !f("CLAUSE_HAVING") || !walk_expr_features(h, f) {
            return false;
        }
    }
    if !select.order_by.is_empty() {
        if !f("CLAUSE_ORDER_BY") {
            return false;
        }
        for o in &select.order_by {
            if !walk_expr_features(&o.expr, f) {
                return false;
            }
        }
    }
    if select.limit.is_some() && !f("CLAUSE_LIMIT") {
        return false;
    }
    if select.offset.is_some() && !f("CLAUSE_OFFSET") {
        return false;
    }
    match &select.set_op {
        Some(set_op) => f("CLAUSE_SET_OPERATION") && walk_select_features(&set_op.right, f),
        None => true,
    }
}

fn walk_factor_features(factor: &TableFactor, f: &mut impl FnMut(&str) -> bool) -> bool {
    match factor {
        TableFactor::Derived { subquery, .. } => {
            f("CLAUSE_SUBQUERY") && walk_select_features(subquery, f)
        }
        _ => true,
    }
}

fn walk_expr_features(expr: &Expr, f: &mut impl FnMut(&str) -> bool) -> bool {
    let ok = match expr {
        Expr::Literal(v) => {
            let ty = v.data_type();
            ty == DataType::Null || f(ty.feature_name())
        }
        Expr::Unary { op, .. } => f(op.feature_name()),
        Expr::Binary { op, .. } => f(op.feature_name()),
        Expr::Function { func, .. } => f(func.feature_name()),
        Expr::Aggregate { func, .. } => f(func.feature_name()),
        Expr::Case { .. } => f("CLAUSE_CASE"),
        Expr::Cast { data_type, .. } => f("OP_CAST") && f(data_type.feature_name()),
        Expr::Between { .. } => f("OP_BETWEEN"),
        Expr::InList { .. } => f("OP_IN"),
        Expr::InSubquery { .. } => f("OP_IN") && f("CLAUSE_SUBQUERY"),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => f("CLAUSE_SUBQUERY"),
        Expr::IsNull { .. } => f("OP_IS_NULL"),
        Expr::IsBool { .. } => f("OP_IS_BOOL"),
        Expr::Like { .. } => f("OP_LIKE"),
        Expr::Column(_) => true,
    };
    if !ok {
        return false;
    }
    // Recurse into children (allocation-free) and embedded subqueries.
    let mut keep_going = true;
    expr.for_each_child(&mut |child| {
        if keep_going && !walk_expr_features(child, f) {
            keep_going = false;
        }
    });
    if !keep_going {
        return false;
    }
    match expr {
        Expr::InSubquery { subquery, .. } | Expr::ScalarSubquery(subquery) => {
            walk_select_features(subquery, f)
        }
        Expr::Exists { subquery, .. } => walk_select_features(subquery, f),
        _ => true,
    }
}

/// Convenience constructors for the feature names of AST elements, mirroring
/// `sqlancer-core`'s naming convention. Exposed for experiment harnesses.
pub fn operator_feature(op: BinaryOp) -> &'static str {
    op.feature_name()
}

/// Feature name of a unary operator.
pub fn unary_feature(op: UnaryOp) -> &'static str {
    op.feature_name()
}

/// Feature name of a scalar function.
pub fn function_feature(func: ScalarFunction) -> &'static str {
    func.feature_name()
}

/// Feature name of a join type.
pub fn join_feature(join: JoinType) -> &'static str {
    join.feature_name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sql_parser::parse_statement;

    #[test]
    fn profile_rejects_unsupported_statement_kind() {
        let profile = DialectProfile::permissive("crate-like", TypingMode::Strict)
            .without(&["STMT_CREATE_INDEX", "OP_NULLSAFE_EQ"]);
        let create_index = parse_statement("CREATE INDEX i0 ON t0(c0)").unwrap();
        assert_eq!(
            profile.first_unsupported(&create_index),
            Some("STMT_CREATE_INDEX".to_string())
        );
        let query = parse_statement("SELECT * FROM t0 WHERE c0 <=> 1").unwrap();
        assert_eq!(
            profile.first_unsupported(&query),
            Some("OP_NULLSAFE_EQ".to_string())
        );
        let fine = parse_statement("SELECT * FROM t0 WHERE c0 = 1").unwrap();
        assert_eq!(profile.first_unsupported(&fine), None);
    }

    #[test]
    fn feature_collection_sees_nested_constructs() {
        let stmt = parse_statement(
            "SELECT NULLIF(c0, 1) FROM t0 LEFT JOIN t1 ON t0.c0 = t1.c0 \
             WHERE (c0 IN (SELECT c0 FROM t2)) AND SIN(1) > 0 GROUP BY c0 LIMIT 3",
        )
        .unwrap();
        let features = collect_statement_features(&stmt);
        for expected in [
            "STMT_SELECT",
            "JOIN_LEFT",
            "CLAUSE_WHERE",
            "CLAUSE_GROUP_BY",
            "CLAUSE_LIMIT",
            "CLAUSE_SUBQUERY",
            "FN_NULLIF",
            "FN_SIN",
            "OP_IN",
            "OP_GT",
            "OP_AND",
        ] {
            assert!(
                features.iter().any(|f| f == expected),
                "missing {expected} in {features:?}"
            );
        }
    }

    #[test]
    fn supported_universe_shrinks_with_unsupported_features() {
        let full = DialectProfile::permissive("full", TypingMode::Dynamic).supported_universe();
        let restricted = DialectProfile::permissive("restricted", TypingMode::Dynamic)
            .without(&["JOIN_FULL", "FN_SIN", "OP_NULLSAFE_EQ"])
            .supported_universe();
        assert_eq!(full.len(), restricted.len() + 3);
    }
}
