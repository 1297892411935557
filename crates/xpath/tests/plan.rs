//! The plan step against the unrewritten form.
//!
//! `eval` rewrites `//T` into one `descendant::T` scan and stops ancestor
//! walks at nodes an earlier walk of the same step already considered. The
//! oracle for the first rule is the same query with every `//` written as
//! `/descendant-or-self::node()[self::node()]/`: the always-true predicate
//! blocks the rewrite, so the oracle runs the spec's two steps. The oracle
//! for the second rule is a walk up the document's own parent links.
//! Counting navigators pin the gain: `//keyword` asks for each element's
//! children at most once, and `//keyword/ancestor::listitem` asks for each
//! node's parent at most once.

use std::collections::{BTreeSet, HashMap};

use natix_datagen::GenConfig;
use natix_store::StoreResult;
use natix_tree::NodeId;
use natix_xml::{Document, NodeKind};
use natix_xpath::{eval_query, ChildInfo, MemNavigator, Navigator};
use proptest::prelude::*;

/// The separator the oracle uses for `//`.
const UNPLANNED: &str = "/descendant-or-self::node()[self::node()]/";

/// One small document from every generator.
fn documents() -> Vec<(&'static str, Document)> {
    let cfg = |seed| GenConfig { scale: 0.004, seed };
    vec![
        ("sigmod", natix_datagen::sigmod(cfg(1))),
        ("mondial", natix_datagen::mondial(cfg(2))),
        ("partsupp", natix_datagen::partsupp(cfg(3))),
        ("uwm", natix_datagen::uwm(cfg(4))),
        ("orders", natix_datagen::orders(cfg(5))),
        ("xmark", natix_datagen::xmark(cfg(6))),
    ]
}

thread_local! {
    static DOCS: Vec<(&'static str, Document)> = documents();
}

/// Element names of `doc`, plus one it does not contain.
fn names(doc: &Document) -> Vec<String> {
    let elements: BTreeSet<&str> = doc
        .tree()
        .preorder()
        .filter(|&n| doc.kind(n) == NodeKind::Element)
        .map(|n| doc.name(n))
        .collect();
    elements
        .into_iter()
        .chain(["nosuch"])
        .map(str::to_string)
        .collect()
}

fn eval(doc: &Document, query: &str) -> Vec<NodeId> {
    let mut nav = MemNavigator::new(doc);
    eval_query(&mut nav, query).unwrap_or_else(|e| panic!("{query}: {e}"))
}

/// The query with every `//` written so that the plan cannot rewrite it.
fn unplanned(query: &str) -> String {
    query.replace("//", UNPLANNED)
}

/// Does `n` pass node test `test` on a non-attribute axis?
fn matches(doc: &Document, n: NodeId, test: &str) -> bool {
    let kind = doc.kind(n);
    match test {
        "node()" => true,
        "text()" => kind == NodeKind::Text,
        "*" => kind == NodeKind::Element,
        name => kind == NodeKind::Element && doc.name(n) == name,
    }
}

/// `ancestor::test` (or `ancestor-or-self::test`) of `ctx`, by walking
/// the document's parent links from every context node to the root.
fn walk_up(doc: &Document, ctx: &[NodeId], or_self: bool, test: &str) -> Vec<NodeId> {
    let mut out = BTreeSet::new();
    for &c in ctx {
        let mut cur = if or_self {
            Some(c)
        } else {
            doc.tree().parent(c)
        };
        while let Some(n) = cur {
            if matches(doc, n, test) {
                out.insert(n);
            }
            cur = doc.tree().parent(n);
        }
    }
    out.into_iter().collect()
}

/// A step as generated: (separator and axis, node test, name, predicate,
/// predicate name).
type StepGene = (u8, u8, u32, u8, u32);

fn test_text(t: u8, name: u32, names: &[String]) -> String {
    match t % 6 {
        0 | 1 => "*".to_string(),
        2 => "node()".to_string(),
        3 => "text()".to_string(),
        _ => names[name as usize % names.len()].clone(),
    }
}

/// Render one step with its leading separator (`/`, `//` or none when
/// `first` and relative). Predicates hold relative paths with `//`.
/// `unplanned` renders the oracle form: every `//` as [`UNPLANNED`] and
/// every explicit `descendant-or-self` step guarded by `[self::node()]`.
fn render_step(gene: StepGene, first: bool, unplanned: bool, names: &[String], out: &mut String) {
    let (sep_axis, test, name, pred, pred_name) = gene;
    let dslash = if unplanned { UNPLANNED } else { "//" };
    let test = test_text(test, name, names);
    let axis = match (sep_axis / 2) % 8 {
        0..=2 => "",
        3 => "descendant::",
        4 => "descendant-or-self::",
        5 => "parent::",
        6 => "ancestor::",
        _ => "ancestor-or-self::",
    };
    if !first {
        out.push_str(if sep_axis % 2 == 0 { dslash } else { "/" });
    }
    out.push_str(axis);
    out.push_str(&test);
    if unplanned && axis == "descendant-or-self::" {
        out.push_str("[self::node()]");
    }
    let p = names[pred_name as usize % names.len()].as_str();
    match pred % 8 {
        0 => out.push_str(&format!("[.{dslash}{p}]")),
        1 => out.push_str(&format!("[{p}{dslash}node()]")),
        2 => out.push_str(&format!("[ancestor::{p} or .{dslash}text()]")),
        3 => out.push_str(&format!("[*{dslash}{p} and parent::*]")),
        _ => {}
    }
}

fn render(absolute: bool, genes: &[StepGene], unplanned: bool, names: &[String]) -> String {
    let mut q = String::new();
    for (i, &g) in genes.iter().enumerate() {
        // An absolute path starts with its first step's separator.
        render_step(g, i == 0 && !absolute, unplanned, names, &mut q);
    }
    q
}

fn step_gene() -> impl Strategy<Value = StepGene> {
    (0u8..16, 0u8..6, 0u32..1000, 0u8..8, 0u32..1000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Planned evaluation selects exactly what the unrewritten form does,
    /// on every generator's document.
    #[test]
    fn plan_matches_unrewritten_form(
        doc_ix in 0usize..6,
        absolute in any::<bool>(),
        genes in prop::collection::vec(step_gene(), 1..5),
    ) {
        DOCS.with(|docs| {
            let (doc_name, doc) = &docs[doc_ix];
            let names = names(doc);
            let q = render(absolute, &genes, false, &names);
            let got = eval(doc, &q);
            let want = eval(doc, &render(absolute, &genes, true, &names));
            prop_assert_eq!(got, want, "{} on {}", q, doc_name);
            Ok(())
        })?;
    }

    /// An ancestor step over any context set selects what walking every
    /// context's parent links to the root selects.
    #[test]
    fn ancestor_steps_match_a_walk_to_the_root(
        doc_ix in 0usize..6,
        genes in prop::collection::vec(step_gene(), 1..4),
        or_self in any::<bool>(),
        test in (0u8..6, 0u32..1000),
    ) {
        DOCS.with(|docs| {
            let (doc_name, doc) = &docs[doc_ix];
            let names = names(doc);
            let prefix = render(true, &genes, false, &names);
            let test = test_text(test.0, test.1, &names);
            let axis = if or_self { "ancestor-or-self" } else { "ancestor" };
            let q = format!("{prefix}/{axis}::{test}");
            let want = walk_up(doc, &eval(doc, &prefix), or_self, &test);
            prop_assert_eq!(eval(doc, &q), want, "{} on {}", q, doc_name);
            Ok(())
        })?;
    }
}

#[test]
fn pinned_queries_match_the_unrewritten_form() {
    DOCS.with(|docs| {
        let (_, doc) = docs.iter().find(|(name, _)| *name == "xmark").unwrap();
        let all: Vec<NodeId> = doc.tree().preorder().collect();
        let count = |pred: &dyn Fn(NodeId) -> bool| all.iter().filter(|&&n| pred(n)).count();
        let cases: Vec<(&str, usize)> = vec![
            (
                "//@id",
                count(&|n| doc.kind(n) == NodeKind::Attribute && doc.name(n) == "id"),
            ),
            ("//text()", count(&|n| doc.kind(n) == NodeKind::Text)),
            ("//*", count(&|n| doc.kind(n) == NodeKind::Element)),
            ("//node()", count(&|n| doc.kind(n) != NodeKind::Attribute)),
            ("/", 0),
        ];
        for (q, n) in cases {
            let got = eval(doc, q);
            assert_eq!(got.len(), n, "{q}");
            assert_eq!(got, eval(doc, &unplanned(q)), "{q}");
        }
        for q in [
            "//listitem//keyword",
            "//item[.//keyword]",
            "//item[.//keyword and .//mail]/name",
            "//parlist/ancestor-or-self::parlist",
            "//listitem/ancestor-or-self::listitem",
            "//keyword/ancestor-or-self::*",
        ] {
            let got = eval(doc, q);
            assert!(!got.is_empty(), "{q} selects something on this document");
            assert_eq!(got, eval(doc, &unplanned(q)), "{q}");
        }
        // Nested contexts: inner parlists are both context nodes and
        // ancestors of other context nodes.
        let parlists = eval(doc, "//parlist");
        assert!(
            parlists
                .iter()
                .any(|&p| !walk_up(doc, &[p], false, "parlist").is_empty()),
            "the document nests parlists"
        );
        for (q, or_self, test) in [
            ("//parlist/ancestor-or-self::parlist", true, "parlist"),
            ("//parlist/ancestor::parlist", false, "parlist"),
            ("//listitem/ancestor-or-self::node()", true, "node()"),
        ] {
            let ctx = eval(doc, &q[..q.rfind('/').unwrap()]);
            assert_eq!(eval(doc, q), walk_up(doc, &ctx, or_self, test), "{q}");
        }
    });
}

/// A navigator that counts `children()` and `parent()` calls per node.
struct Counting<'a> {
    inner: MemNavigator<'a>,
    children: HashMap<NodeId, usize>,
    parents: HashMap<NodeId, usize>,
}

impl Navigator for Counting<'_> {
    type Node = NodeId;

    fn root(&mut self) -> StoreResult<NodeId> {
        self.inner.root()
    }
    fn info(&mut self, n: NodeId) -> StoreResult<(NodeKind, u32)> {
        self.inner.info(n)
    }
    fn resolve_label(&mut self, name: &str) -> StoreResult<Option<u32>> {
        self.inner.resolve_label(name)
    }
    fn content(&mut self, n: NodeId) -> StoreResult<Option<String>> {
        self.inner.content(n)
    }
    fn children(&mut self, n: NodeId, out: &mut Vec<ChildInfo<NodeId>>) -> StoreResult<()> {
        *self.children.entry(n).or_insert(0) += 1;
        self.inner.children(n, out)
    }
    fn parent(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        *self.parents.entry(n).or_insert(0) += 1;
        self.inner.parent(n)
    }
    fn next_sibling(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        self.inner.next_sibling(n)
    }
    fn prev_sibling(&mut self, n: NodeId) -> StoreResult<Option<NodeId>> {
        self.inner.prev_sibling(n)
    }
}

fn counting(doc: &Document) -> Counting<'_> {
    Counting {
        inner: MemNavigator::new(doc),
        children: HashMap::new(),
        parents: HashMap::new(),
    }
}

#[test]
fn double_slash_lists_each_elements_children_at_most_once() {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.01,
        seed: 7,
    });
    let mut nav = counting(&doc);
    let hits = eval_query(&mut nav, "//keyword").unwrap();
    assert_eq!(hits, eval(&doc, &unplanned("//keyword")));
    let calls = nav.children;
    assert!(calls.values().all(|&c| c == 1), "a node listed twice");
    assert!(calls.keys().all(|&n| doc.kind(n) == NodeKind::Element));
}

#[test]
fn ancestor_walks_ask_each_nodes_parent_at_most_once() {
    let doc = natix_datagen::xmark(GenConfig {
        scale: 0.01,
        seed: 7,
    });
    let keywords = eval(&doc, "//keyword");
    for q in [
        "//keyword/ancestor::listitem",
        "//keyword/ancestor-or-self::mail",
    ] {
        let mut nav = counting(&doc);
        let hits = eval_query(&mut nav, q).unwrap();
        assert_eq!(hits, eval(&doc, &unplanned(q)), "{q}");
        let calls = nav.parents;
        assert!(calls.values().all(|&c| c == 1), "{q}: a parent asked twice");
        // The walks climb from the keywords and their distinct ancestors
        // only, never once per (keyword, ancestor) pair.
        let climbed: BTreeSet<NodeId> = keywords
            .iter()
            .chain(&walk_up(&doc, &keywords, false, "node()"))
            .copied()
            .collect();
        assert!(calls.keys().all(|n| climbed.contains(n)), "{q}");
        let pairs: usize = keywords
            .iter()
            .map(|&k| walk_up(&doc, &[k], true, "node()").len())
            .sum();
        assert!(
            calls.len() * 2 < pairs,
            "{q}: {} calls, {pairs} pairs",
            calls.len()
        );
    }
}
