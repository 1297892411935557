//! The XPath evaluator: step-at-a-time set semantics over any
//! [`Navigator`].
//!
//! [`eval`] first plans the query once (`plan.rs`): `//T` becomes a
//! single `descendant::T` scan, in predicate paths too, and nothing is
//! rewritten again per candidate. The planned path is then evaluated one
//! step at a time: every context node of a step is expanded along the
//! axis, candidates are filtered by the node test and predicates, and the
//! step's output is sorted and deduplicated before the next step. The sort
//! stays even where an axis could emit in order, because the navigator's
//! node order need not be document order: a store's `NodeRef` orders by
//! (record, local index), and record numbers stop following document order
//! once updates run.
//!
//! Result node-sets are deduplicated and returned in the navigator's node
//! ordering (document order for [`crate::MemNavigator`], whose node ids are
//! assigned in document order by the parser and generators).
//!
//! Downward axes use the bulk [`Navigator::children`] primitive, which a
//! store-backed navigator serves with one record access per child interval;
//! kind and label arrive with each child, so node tests need no further
//! lookups on the hot path. The ancestor walks of one step share the set of
//! nodes they have considered: a walk stops at the first ancestor an
//! earlier walk of the same step already considered, because that walk
//! went on to consider all of its ancestors too.

use std::collections::HashSet;

use natix_store::StoreResult;
use natix_xml::NodeKind;

use crate::ast::{Axis, Expr, NodeTest, Path, Step};
use crate::navigator::{ChildInfo, Navigator};
use crate::plan::plan;

/// Evaluation context node: the (virtual) document root, or a real node.
/// `Root` sorts first, matching document order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Ctx<T> {
    Root,
    Node(T),
}

/// A node test with its name resolved to the backend's label id.
#[derive(Debug, Clone, Copy)]
enum ResolvedTest {
    /// Name test: principal node kind plus this label. `None` label means
    /// the name does not occur in the document at all.
    Label(Option<u32>),
    /// `*`: principal node kind.
    Wildcard,
    /// `node()`.
    AnyNode,
    /// `text()`.
    Text,
}

impl ResolvedTest {
    fn resolve<N: Navigator>(nav: &mut N, test: &NodeTest) -> StoreResult<ResolvedTest> {
        Ok(match test {
            NodeTest::Name(name) => ResolvedTest::Label(nav.resolve_label(name)?),
            NodeTest::Wildcard => ResolvedTest::Wildcard,
            NodeTest::AnyNode => ResolvedTest::AnyNode,
            NodeTest::Text => ResolvedTest::Text,
        })
    }

    /// Check against known kind and label.
    fn matches(self, principal: NodeKind, kind: NodeKind, label: u32) -> bool {
        match self {
            ResolvedTest::AnyNode => true,
            ResolvedTest::Wildcard => kind == principal,
            ResolvedTest::Text => kind == NodeKind::Text,
            ResolvedTest::Label(want) => kind == principal && Some(label) == want,
        }
    }
}

/// Evaluate an absolute or relative path from the document root, returning
/// the selected nodes (the virtual root itself is never returned).
pub fn eval<N: Navigator>(nav: &mut N, path: &Path) -> StoreResult<Vec<N::Node>> {
    let out = eval_from(nav, Ctx::Root, &plan(path))?;
    Ok(out
        .into_iter()
        .filter_map(|c| match c {
            Ctx::Root => None,
            Ctx::Node(n) => Some(n),
        })
        .collect())
}

/// Parse-and-evaluate convenience.
pub fn eval_query<N: Navigator>(
    nav: &mut N,
    query: &str,
) -> Result<Vec<N::Node>, crate::EvalError> {
    let path = crate::parse(query).map_err(crate::EvalError::Parse)?;
    eval(nav, &path).map_err(crate::EvalError::Store)
}

/// Evaluate a planned path from `origin`; the result is sorted and
/// duplicate-free.
fn eval_from<N: Navigator>(
    nav: &mut N,
    origin: Ctx<N::Node>,
    path: &Path,
) -> StoreResult<Vec<Ctx<N::Node>>> {
    let mut ctx: Vec<Ctx<N::Node>> = vec![if path.absolute { Ctx::Root } else { origin }];
    for step in &path.steps {
        let test = ResolvedTest::resolve(nav, &step.test)?;
        let mut considered = HashSet::new();
        let mut next: Vec<Ctx<N::Node>> = Vec::new();
        for &c in &ctx {
            expand_axis(nav, c, step, test, &mut considered, &mut next)?;
        }
        // Set semantics once per step (cheaper than per-candidate set
        // inserts, and keeps processing in node order for store locality).
        next.sort_unstable();
        next.dedup();
        ctx = next;
        if ctx.is_empty() {
            break;
        }
    }
    Ok(ctx)
}

/// Expand one step from one context node into `out`, applying the node
/// test and predicates. `considered` holds the nodes the ancestor walks of
/// this step have considered so far, for all of its context nodes.
fn expand_axis<N: Navigator>(
    nav: &mut N,
    ctx: Ctx<N::Node>,
    step: &Step,
    test: ResolvedTest,
    considered: &mut HashSet<Ctx<N::Node>>,
    out: &mut Vec<Ctx<N::Node>>,
) -> StoreResult<()> {
    let principal = if step.axis == Axis::Attribute {
        NodeKind::Attribute
    } else {
        NodeKind::Element
    };

    // Emit a candidate whose kind/label are already known.
    macro_rules! consider {
        ($ctx:expr, $kind:expr, $label:expr) => {
            if test.matches(principal, $kind, $label) {
                let c = $ctx;
                if pass_predicates(nav, c, step)? {
                    out.push(c);
                }
            }
        };
    }
    // Emit a candidate that needs an info lookup (upward/self axes). The
    // virtual root only ever matches `node()`.
    macro_rules! consider_lookup {
        ($ctx:expr) => {
            match $ctx {
                Ctx::Root => {
                    if matches!(test, ResolvedTest::AnyNode)
                        && pass_predicates(nav, Ctx::Root, step)?
                    {
                        out.push(Ctx::Root);
                    }
                }
                Ctx::Node(n) => {
                    let (kind, label) = nav.info(n)?;
                    consider!(Ctx::Node(n), kind, label);
                }
            }
        };
    }

    let mut kids: Vec<ChildInfo<N::Node>> = Vec::new();
    match step.axis {
        Axis::Child | Axis::Attribute => {
            match ctx {
                Ctx::Root => {
                    if step.axis == Axis::Child {
                        let r = nav.root()?;
                        let (kind, label) = nav.info(r)?;
                        consider!(Ctx::Node(r), kind, label);
                    }
                }
                Ctx::Node(n) => {
                    nav.children(n, &mut kids)?;
                    for k in &kids {
                        // The child axis excludes attribute nodes; the
                        // attribute axis selects only them.
                        let is_attr = k.kind == NodeKind::Attribute;
                        if is_attr == (step.axis == Axis::Attribute) {
                            consider!(Ctx::Node(k.node), k.kind, k.label);
                        }
                    }
                }
            }
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            if step.axis == Axis::DescendantOrSelf {
                consider_lookup!(ctx);
            }
            // DFS over (node, kind, label), attributes excluded.
            let mut stack: Vec<ChildInfo<N::Node>> = Vec::new();
            let push_children =
                |nav: &mut N, n: N::Node, stack: &mut Vec<ChildInfo<N::Node>>| -> StoreResult<()> {
                    let start = stack.len();
                    nav.children(n, stack)?;
                    // Children were appended in document order; reversing
                    // the appended range makes the stack pop them in
                    // document order.
                    stack[start..].reverse();
                    Ok(())
                };
            match ctx {
                Ctx::Root => {
                    let r = nav.root()?;
                    let (kind, label) = nav.info(r)?;
                    stack.push(ChildInfo {
                        node: r,
                        kind,
                        label,
                    });
                }
                Ctx::Node(n) => push_children(nav, n, &mut stack)?,
            }
            while let Some(k) = stack.pop() {
                if k.kind == NodeKind::Attribute {
                    continue;
                }
                consider!(Ctx::Node(k.node), k.kind, k.label);
                if k.kind == NodeKind::Element {
                    push_children(nav, k.node, &mut stack)?;
                }
            }
        }
        Axis::SelfAxis => {
            consider_lookup!(ctx);
        }
        Axis::Parent => {
            if let Some(p) = parent(nav, ctx)? {
                consider_lookup!(p);
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut cur = if step.axis == Axis::AncestorOrSelf {
                Some(ctx)
            } else {
                parent(nav, ctx)?
            };
            // Stop at the first node an earlier walk of this step already
            // considered: that walk went on to consider its ancestors too.
            while let Some(c) = cur {
                if !considered.insert(c) {
                    break;
                }
                consider_lookup!(c);
                cur = parent(nav, c)?;
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            if let Ctx::Node(n) = ctx {
                let (kind, _) = nav.info(n)?;
                if kind != NodeKind::Attribute {
                    let forward = step.axis == Axis::FollowingSibling;
                    let mut c = if forward {
                        nav.next_sibling(n)?
                    } else {
                        nav.prev_sibling(n)?
                    };
                    while let Some(x) = c {
                        let (kind, label) = nav.info(x)?;
                        if kind != NodeKind::Attribute {
                            consider!(Ctx::Node(x), kind, label);
                        }
                        c = if forward {
                            nav.next_sibling(x)?
                        } else {
                            nav.prev_sibling(x)?
                        };
                    }
                }
            }
        }
    }
    Ok(())
}

/// The parent context: the virtual root above the document element, none
/// above the virtual root.
fn parent<N: Navigator>(nav: &mut N, c: Ctx<N::Node>) -> StoreResult<Option<Ctx<N::Node>>> {
    Ok(match c {
        Ctx::Root => None,
        Ctx::Node(n) => Some(nav.parent(n)?.map_or(Ctx::Root, Ctx::Node)),
    })
}

fn pass_predicates<N: Navigator>(nav: &mut N, ctx: Ctx<N::Node>, step: &Step) -> StoreResult<bool> {
    for pred in &step.predicates {
        if !eval_expr(nav, ctx, pred)? {
            return Ok(false);
        }
    }
    Ok(true)
}

fn eval_expr<N: Navigator>(nav: &mut N, ctx: Ctx<N::Node>, expr: &Expr) -> StoreResult<bool> {
    match expr {
        Expr::Or(a, b) => Ok(eval_expr(nav, ctx, a)? || eval_expr(nav, ctx, b)?),
        Expr::And(a, b) => Ok(eval_expr(nav, ctx, a)? && eval_expr(nav, ctx, b)?),
        Expr::Path(p) => Ok(!eval_from(nav, ctx, p)?.is_empty()),
        Expr::Equals(p, lit) => {
            for c in eval_from(nav, ctx, p)? {
                if let Ctx::Node(n) = c {
                    if string_value(nav, n)? == *lit {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
    }
}

/// XPath string-value: content for attribute/text-bearing nodes, the
/// concatenation of descendant text for elements.
fn string_value<N: Navigator>(nav: &mut N, n: N::Node) -> StoreResult<String> {
    if let Some(content) = nav.content(n)? {
        return Ok(content);
    }
    // Element: concatenate descendant text nodes in document order.
    let mut out = String::new();
    let mut stack: Vec<ChildInfo<N::Node>> = Vec::new();
    let start = stack.len();
    nav.children(n, &mut stack)?;
    stack[start..].reverse();
    while let Some(k) = stack.pop() {
        match k.kind {
            NodeKind::Text => {
                if let Some(t) = nav.content(k.node)? {
                    out.push_str(&t);
                }
            }
            NodeKind::Element => {
                let start = stack.len();
                nav.children(k.node, &mut stack)?;
                stack[start..].reverse();
            }
            _ => {}
        }
    }
    Ok(out)
}
