//! The plan step: the only place a query is rewritten.
//!
//! [`crate::eval`] plans a parsed [`Path`] once per query, nested
//! predicate paths included, and evaluates the planned copy; the parser's
//! output stays spec-shaped. One rewrite applies:
//!
//! `descendant-or-self::node()` without predicates, followed by
//! `child::T[p…]`, becomes `descendant::T[p…]`, so `//T` is one
//! descendant scan instead of a scan that materialises every node and then
//! expands each one again. Sound for every node test `T` because the subset
//! has no positional predicates: a predicate depends only on its candidate
//! node, not on the context it was reached from. From the virtual root,
//! `descendant` starts at the document element, exactly the children of
//! every node that `descendant-or-self` yields; from an attribute, both
//! forms are empty. `//@a` (attribute axis) and a
//! `descendant-or-self::node()[p]` step with a predicate are left alone.

use crate::ast::{Axis, Expr, NodeTest, Path, Step};

/// The planned form of `path`.
pub(crate) fn plan(path: &Path) -> Path {
    let mut steps = Vec::with_capacity(path.steps.len());
    let mut it = path.steps.iter().peekable();
    while let Some(step) = it.next() {
        let bare_dos = step.axis == Axis::DescendantOrSelf
            && step.test == NodeTest::AnyNode
            && step.predicates.is_empty();
        let (axis, step) = match it.next_if(|s| bare_dos && s.axis == Axis::Child) {
            Some(child) => (Axis::Descendant, child),
            None => (step.axis, step),
        };
        steps.push(Step {
            axis,
            test: step.test.clone(),
            predicates: step.predicates.iter().map(plan_expr).collect(),
        });
    }
    Path {
        absolute: path.absolute,
        steps,
    }
}

fn plan_expr(expr: &Expr) -> Expr {
    match expr {
        Expr::Or(a, b) => Expr::Or(Box::new(plan_expr(a)), Box::new(plan_expr(b))),
        Expr::And(a, b) => Expr::And(Box::new(plan_expr(a)), Box::new(plan_expr(b))),
        Expr::Path(p) => Expr::Path(plan(p)),
        Expr::Equals(p, lit) => Expr::Equals(plan(p), lit.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn planned(q: &str) -> String {
        plan(&parse(q).unwrap()).to_string()
    }

    #[test]
    fn double_slash_becomes_one_descendant_step() {
        assert_eq!(planned("//keyword"), "/descendant::keyword");
        assert_eq!(planned("//a//b"), "/descendant::a/descendant::b");
        assert_eq!(planned("//*"), "/descendant::*");
        assert_eq!(planned("//text()"), "/descendant::text()");
        assert_eq!(planned("//node()"), "/descendant::node()");
        assert_eq!(planned("/"), "/");
        assert_eq!(
            planned("//keyword/ancestor::listitem"),
            "/descendant::keyword/ancestor::listitem"
        );
    }

    #[test]
    fn predicates_are_planned_and_kept() {
        assert_eq!(
            planned("//item[.//keyword or @id='x']"),
            "/descendant::item[self::node()/descendant::keyword or attribute::id = 'x']"
        );
    }

    #[test]
    fn attribute_self_and_guarded_steps_are_left_alone() {
        for q in [
            "//@id",
            "//.",
            "//..",
            "/descendant-or-self::node()[self::node()]/child::a",
            "/descendant-or-self::listitem/child::keyword",
        ] {
            assert_eq!(planned(q), parse(q).unwrap().to_string(), "{q}");
        }
    }
}
