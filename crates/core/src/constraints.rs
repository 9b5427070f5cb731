//! Integrity constraints: `unique`, `key`, and `keyref` (Section 3.1).
//!
//! "BonXai allows to express the same integrity constraints as XML Schema
//! (i.e., unique, key, and keyref)." A constraint has a *selector* — an
//! ancestor pattern choosing the constrained nodes — and a list of
//! *fields* — attribute or child-element values forming the tuple.
//!
//! The concrete syntax accepted in the `constraints { … }` block:
//!
//! ```text
//! constraints {
//!   unique //style { @name }
//!   key styleKey = //userstyles/style { @name }
//!   keyref //content//style { @name } references styleKey
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt;

use relang::{Alphabet, Dfa, StateId, Sym};
use xmltree::{Document, NodeId};

use crate::lang::ast::PathExpr;

/// The three constraint kinds of XML Schema / BonXai.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintKind {
    /// Tuples must be pairwise distinct where fully present.
    Unique,
    /// Tuples must be present and pairwise distinct.
    Key,
    /// Tuples must occur among the tuples of the referenced key.
    KeyRef {
        /// Name of the referenced key.
        refer: String,
    },
}

/// A field of a constraint tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Field {
    /// `@name` — an attribute of the selected element.
    Attribute(String),
    /// `name` — the text content of the first child element so named.
    ChildText(String),
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Field::Attribute(n) => write!(f, "@{n}"),
            Field::ChildText(n) => write!(f, "{n}"),
        }
    }
}

/// One integrity constraint.
#[derive(Clone, Debug, PartialEq)]
pub struct Constraint {
    /// Optional name (required for keys so keyrefs can reference them).
    pub name: Option<String>,
    /// The kind.
    pub kind: ConstraintKind,
    /// Selector: an ancestor pattern over element names.
    pub selector: PathExpr,
    /// The tuple fields.
    pub fields: Vec<Field>,
}

/// A constraint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConstraintViolation {
    /// Two selected nodes share a tuple under `unique`/`key`.
    Duplicate {
        /// Constraint name or index description.
        constraint: String,
        /// The duplicated tuple.
        tuple: Vec<String>,
        /// The two offending nodes.
        nodes: (NodeId, NodeId),
    },
    /// A `key` field is absent on a selected node.
    MissingField {
        /// Constraint name or index description.
        constraint: String,
        /// The missing field.
        field: String,
        /// The offending node.
        node: NodeId,
    },
    /// A `keyref` tuple has no matching key tuple.
    DanglingRef {
        /// Constraint name or index description.
        constraint: String,
        /// The dangling tuple.
        tuple: Vec<String>,
        /// The offending node.
        node: NodeId,
    },
    /// A `keyref` references an unknown key name.
    UnknownKey {
        /// The missing key name.
        refer: String,
    },
}

impl fmt::Display for ConstraintViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintViolation::Duplicate {
                constraint, tuple, ..
            } => {
                write!(f, "{constraint}: duplicate tuple {tuple:?}")
            }
            ConstraintViolation::MissingField {
                constraint, field, ..
            } => {
                write!(f, "{constraint}: key field {field} missing")
            }
            ConstraintViolation::DanglingRef {
                constraint, tuple, ..
            } => {
                write!(f, "{constraint}: tuple {tuple:?} matches no key")
            }
            ConstraintViolation::UnknownKey { refer } => {
                write!(f, "keyref references unknown key {refer:?}")
            }
        }
    }
}

/// Checks `constraints` against `doc`. `alphabet` is the schema's element
/// alphabet (selector patterns are interpreted over it). Costs nothing
/// without constraints, and one walk of the document per constraint
/// otherwise.
pub fn check_constraints(
    constraints: &[Constraint],
    alphabet: &Alphabet,
    doc: &Document,
) -> Vec<ConstraintViolation> {
    let mut violations = Vec::new();
    if constraints.is_empty() {
        return violations;
    }
    // Tuples per key name, collected first so keyrefs can look them up
    // regardless of declaration order.
    let mut key_tuples: BTreeMap<&str, Vec<Vec<String>>> = BTreeMap::new();
    let syms: Vec<Option<Sym>> = doc
        .distinct_names()
        .iter()
        .map(|n| alphabet.lookup(n))
        .collect();

    // Collects the complete tuples of constraint `idx`, reporting missing
    // key fields along the way.
    let collect = |idx: usize, violations: &mut Vec<ConstraintViolation>| {
        let constraint = &constraints[idx];
        let label = constraint
            .name
            .clone()
            .unwrap_or_else(|| format!("constraint #{idx}"));
        let regex = crate::lang::lower::path_to_regex_resolved(&constraint.selector, alphabet);
        let selector = relang::ops::regex_to_dfa(&regex, alphabet.len());
        let mut out: Vec<(NodeId, Vec<String>)> = Vec::new();
        for node in selected(&selector, &syms, doc) {
            let mut tuple = Vec::with_capacity(constraint.fields.len());
            let mut missing = None;
            for field in &constraint.fields {
                match field_value(doc, node, field) {
                    Some(v) => tuple.push(v),
                    None => {
                        missing = Some(field);
                        break;
                    }
                }
            }
            match missing {
                Some(field) => {
                    if constraint.kind == ConstraintKind::Key {
                        violations.push(ConstraintViolation::MissingField {
                            constraint: label.clone(),
                            field: field.to_string(),
                            node,
                        });
                    }
                    // partial tuples do not participate
                }
                None => out.push((node, tuple)),
            }
        }
        (label, out)
    };

    // Pass 1: unique and key constraints (collect key tuple sets).
    for (idx, constraint) in constraints.iter().enumerate() {
        if matches!(constraint.kind, ConstraintKind::KeyRef { .. }) {
            continue;
        }
        let (label, tuples) = collect(idx, &mut violations);
        let mut seen: BTreeMap<Vec<String>, NodeId> = BTreeMap::new();
        for (node, tuple) in &tuples {
            if let Some(&first) = seen.get(tuple) {
                violations.push(ConstraintViolation::Duplicate {
                    constraint: label.clone(),
                    tuple: tuple.clone(),
                    nodes: (first, *node),
                });
            } else {
                seen.insert(tuple.clone(), *node);
            }
        }
        if constraint.kind == ConstraintKind::Key {
            if let Some(name) = &constraint.name {
                key_tuples.insert(name, tuples.into_iter().map(|(_, t)| t).collect());
            }
        }
    }

    // Pass 2: keyrefs, now that all keys are known.
    for (idx, constraint) in constraints.iter().enumerate() {
        let ConstraintKind::KeyRef { refer } = &constraint.kind else {
            continue;
        };
        let Some(key) = key_tuples.get(refer.as_str()) else {
            violations.push(ConstraintViolation::UnknownKey {
                refer: refer.clone(),
            });
            continue;
        };
        let (label, tuples) = collect(idx, &mut violations);
        for (node, tuple) in tuples {
            if !key.contains(&tuple) {
                violations.push(ConstraintViolation::DanglingRef {
                    constraint: label.clone(),
                    tuple,
                    node,
                });
            }
        }
    }
    violations
}

/// The elements the `selector` DFA accepts the ancestor string of, in
/// document order: one top-down walk that carries the DFA state along
/// each path. A name outside the alphabet (`syms`, by name id), or a step
/// the DFA rejects, ends the path, so nothing below it is selected.
fn selected(selector: &Dfa, syms: &[Option<Sym>], doc: &Document) -> Vec<NodeId> {
    let step = |q: StateId, node: NodeId| {
        let sym = syms[doc.name_id(node)? as usize]?;
        selector.transition(q, sym)
    };
    let mut out = Vec::new();
    let root = doc.root();
    let mut stack: Vec<(NodeId, StateId)> = step(selector.initial(), root)
        .map(|q| (root, q))
        .into_iter()
        .collect();
    while let Some((node, q)) = stack.pop() {
        if selector.is_final(q) {
            out.push(node);
        }
        let children = doc.children(node).iter().rev();
        stack.extend(children.filter_map(|&c| Some((c, step(q, c)?))));
    }
    out
}

fn field_value(doc: &Document, node: NodeId, field: &Field) -> Option<String> {
    match field {
        Field::Attribute(name) => doc.attribute(node, name).map(str::to_owned),
        Field::ChildText(name) => {
            let child = doc
                .element_children(node)
                .find(|&c| doc.name(c) == Some(name.as_str()))?;
            let text: String = doc
                .children(child)
                .iter()
                .filter_map(|&c| doc.text(c))
                .collect();
            Some(text)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::builder::elem;

    fn alphabet() -> Alphabet {
        Alphabet::from_names(["doc", "userstyles", "style", "content", "item"])
    }

    fn selector(names: &[&str]) -> PathExpr {
        // //n1/n2/…
        let mut parts = vec![PathExpr::AnyChain];
        parts.extend(names.iter().map(|n| PathExpr::Name((*n).to_owned())));
        PathExpr::Seq(parts)
    }

    fn doc_with_styles(names: &[&str], refs: &[&str]) -> Document {
        let mut root = elem("doc");
        let mut us = elem("userstyles");
        for n in names {
            us = us.child(elem("style").attr("name", n));
        }
        let mut content = elem("content");
        for r in refs {
            content = content.child(elem("style").attr("name", r));
        }
        root = root.child(us).child(content);
        root.build()
    }

    #[test]
    fn unique_detects_duplicates() {
        let c = Constraint {
            name: None,
            kind: ConstraintKind::Unique,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a", "b"], &[]);
        assert!(check_constraints(std::slice::from_ref(&c), &alphabet(), &ok).is_empty());
        let dup = doc_with_styles(&["a", "a"], &[]);
        let v = check_constraints(&[c], &alphabet(), &dup);
        assert!(matches!(v[0], ConstraintViolation::Duplicate { .. }));
    }

    #[test]
    fn key_requires_presence() {
        let c = Constraint {
            name: Some("styleKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let mut doc = doc_with_styles(&["a"], &[]);
        // add a style without a name
        let us = doc.element_children(doc.root()).next().unwrap();
        doc.add_element(us, "style");
        let v = check_constraints(&[c], &alphabet(), &doc);
        assert!(matches!(v[0], ConstraintViolation::MissingField { .. }));
    }

    #[test]
    fn keyref_resolves_against_key() {
        let key = Constraint {
            name: Some("styleKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "styleKey".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a", "b"], &["a", "b", "a"]);
        assert!(check_constraints(&[key.clone(), kref.clone()], &alphabet(), &ok).is_empty());
        let bad = doc_with_styles(&["a"], &["ghost"]);
        let v = check_constraints(&[key, kref], &alphabet(), &bad);
        assert!(matches!(v[0], ConstraintViolation::DanglingRef { .. }));
    }

    #[test]
    fn keyref_declared_before_key_still_resolves() {
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "k".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let key = Constraint {
            name: Some("k".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["userstyles", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let ok = doc_with_styles(&["a"], &["a"]);
        assert!(check_constraints(&[kref, key], &alphabet(), &ok).is_empty());
    }

    #[test]
    fn unknown_key_reported_once() {
        let kref = Constraint {
            name: None,
            kind: ConstraintKind::KeyRef {
                refer: "nope".to_owned(),
            },
            selector: selector(&["content", "style"]),
            fields: vec![Field::Attribute("name".to_owned())],
        };
        let doc = doc_with_styles(&[], &["a", "b"]);
        let v = check_constraints(&[kref], &alphabet(), &doc);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], ConstraintViolation::UnknownKey { .. }));
    }

    /// Reference selection: every element's whole ancestor string, mapped
    /// through the alphabet and matched against the compiled selector.
    /// Quadratic in depth, so it stays a test oracle for `selected`.
    fn selected_by_anc_str(
        selector: &PathExpr,
        alphabet: &Alphabet,
        doc: &Document,
    ) -> Vec<NodeId> {
        let regex = crate::lang::lower::path_to_regex_resolved(selector, alphabet);
        let matcher = relang::CompiledDre::compile(&regex, alphabet.len());
        doc.iter_elements()
            .filter(|&n| {
                let path: Option<Vec<Sym>> = doc
                    .anc_str(n)
                    .iter()
                    .map(|name| alphabet.lookup(name))
                    .collect();
                path.is_some_and(|p| matcher.matches(&p))
            })
            .collect()
    }

    #[test]
    fn selection_matches_the_ancestor_string_reference_on_edited_documents() {
        let a = alphabet();
        let mut doc = doc_with_styles(&["a", "b"], &["a"]);
        let us = doc.element_children(doc.root()).next().unwrap();
        let content = doc.element_children(doc.root()).nth(1).unwrap();
        // Inserted elements get ids after every parsed one, so arena order
        // and document order part ways; `mystery` is outside the alphabet
        // and hides the styles below it.
        let first = doc.insert_child(content, 0, "style");
        doc.set_attribute(first, "name", "z");
        let mystery = doc.insert_child(doc.root(), 0, "mystery");
        doc.add_element(mystery, "style");
        let nested = doc.insert_child(us, 1, "content");
        doc.add_text(nested, "text");
        doc.add_element(nested, "style");
        let item = doc.insert_child(doc.root(), 1, "item");
        doc.add_element(item, "item");
        let anchored = PathExpr::Seq(vec![
            PathExpr::Name("doc".to_owned()),
            PathExpr::Name("content".to_owned()),
            PathExpr::Name("style".to_owned()),
        ]);
        let any_item = PathExpr::Seq(vec![
            PathExpr::AnyChain,
            PathExpr::Plus(Box::new(PathExpr::Name("item".to_owned()))),
        ]);
        let selectors = [
            selector(&["style"]),
            selector(&["userstyles", "style"]),
            selector(&["content", "style"]),
            PathExpr::Seq(vec![
                PathExpr::AnyChain,
                PathExpr::Name("content".to_owned()),
                PathExpr::AnyChain,
                PathExpr::Name("style".to_owned()),
            ]),
            anchored,
            any_item,
            selector(&["mystery", "style"]),
            PathExpr::AnyChain,
        ];
        let syms: Vec<Option<Sym>> = doc.distinct_names().iter().map(|n| a.lookup(n)).collect();
        for sel in &selectors {
            let regex = crate::lang::lower::path_to_regex_resolved(sel, &a);
            let dfa = relang::ops::regex_to_dfa(&regex, a.len());
            let got = selected(&dfa, &syms, &doc);
            assert_eq!(got, selected_by_anc_str(sel, &a, &doc), "{sel:?}");
        }
        // The edits are visible to the walk, in document order.
        let all_styles = selected_by_anc_str(&selector(&["style"]), &a, &doc);
        assert_eq!(all_styles.len(), 5, "{all_styles:?}");
        assert!(
            all_styles.windows(2).any(|w| w[0] > w[1]),
            "ids out of order"
        );
    }

    #[test]
    fn deep_chain_reports_its_one_duplicate() {
        let mut doc = Document::new("a");
        let mut at = doc.root();
        doc.set_attribute(at, "id", "0");
        for i in 1..20_000 {
            at = doc.add_element(at, "a");
            let id = if i == 12_345 { 777 } else { i };
            doc.set_attribute(at, "id", &id.to_string());
        }
        let c = Constraint {
            name: None,
            kind: ConstraintKind::Unique,
            selector: selector(&["a"]),
            fields: vec![Field::Attribute("id".to_owned())],
        };
        let v = check_constraints(&[c], &Alphabet::from_names(["a"]), &doc);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(matches!(
            &v[0],
            ConstraintViolation::Duplicate { tuple, nodes: (first, second), .. }
                if tuple == &["777".to_owned()] && first < second
        ));
    }

    #[test]
    fn child_text_fields() {
        let c = Constraint {
            name: Some("itemKey".to_owned()),
            kind: ConstraintKind::Key,
            selector: selector(&["item"]),
            fields: vec![Field::ChildText("style".to_owned())],
        };
        let doc = elem("doc")
            .child(elem("item").child(elem("style").text("x")))
            .child(elem("item").child(elem("style").text("x")))
            .build();
        let v = check_constraints(&[c], &alphabet(), &doc);
        assert!(matches!(v[0], ConstraintViolation::Duplicate { .. }));
    }
}
