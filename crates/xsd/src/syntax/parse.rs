//! Reading XSD XML syntax into the surface AST.

use relang::UpperBound;
use xmltree::{Document, NodeId};

use crate::content::AttributeUse;
use crate::simple_types::{Facets, SimpleType};
use crate::syntax::ast::{ComplexType, ElementDecl, Occurs, Particle, SchemaDoc, TypeRef};

/// Deepest nesting of particles and inline complex types accepted, one
/// level per `xs:sequence`/`xs:choice`/`xs:all`/`xs:element` particle
/// and per inline `xs:complexType` along a path. The readers recurse
/// once per level, so unbounded nesting would overflow the stack. The
/// cap matches the DTD parser's content-model cap; a BonXai translation
/// nests at most three levels per particle, so every accepted schema
/// translates within the BonXai parser's nesting cap.
pub const MAX_NESTING: u32 = 512;

/// The nesting level one below `depth`, or the error past
/// [`MAX_NESTING`].
fn nest(depth: u32) -> Result<u32, SyntaxError> {
    if depth >= MAX_NESTING {
        return Err(SyntaxError::new(format!(
            "particles and inline types nested more than {MAX_NESTING} levels deep"
        )));
    }
    Ok(depth + 1)
}

/// An error while reading XSD syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SyntaxError {
    /// Description of the problem.
    pub message: String,
}

impl SyntaxError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        SyntaxError {
            message: msg.into(),
        }
    }
}

impl std::fmt::Display for SyntaxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XSD syntax error: {}", self.message)
    }
}

impl std::error::Error for SyntaxError {}

/// Parses an `<xs:schema>` document into the surface AST.
pub fn read_schema_doc(doc: &Document) -> Result<SchemaDoc, SyntaxError> {
    let root = doc.root();
    if doc.local_name(root) != Some("schema") {
        return Err(SyntaxError::new(format!(
            "expected <schema> root, found <{}>",
            doc.name(root).unwrap_or("?")
        )));
    }
    let mut out = SchemaDoc {
        target_namespace: doc.attribute(root, "targetNamespace").map(str::to_owned),
        ..SchemaDoc::default()
    };
    for child in doc.element_children(root) {
        match doc.local_name(child) {
            Some("element") => out.roots.push(read_element(doc, child, 0)?),
            Some("complexType") => {
                let name = required_attr(doc, child, "name")?;
                out.named_types
                    .push((name, read_complex_type(doc, child, 0)?));
            }
            Some("group") => {
                let name = required_attr(doc, child, "name")?;
                let inner = doc
                    .element_children(child)
                    .find(|&c| matches!(doc.local_name(c), Some("sequence" | "choice" | "all")))
                    .ok_or_else(|| SyntaxError::new(format!("group {name} has no model group")))?;
                out.groups.push((name, read_particle(doc, inner, 0)?));
            }
            Some("simpleType") => {
                let name = required_attr(doc, child, "name")?;
                out.simple_types.push((name, read_simple_type(doc, child)?));
            }
            Some("attributeGroup") => {
                let name = required_attr(doc, child, "name")?;
                let mut attrs = Vec::new();
                for a in doc.element_children(child) {
                    if doc.local_name(a) == Some("attribute") {
                        attrs.push(read_attribute(doc, a)?);
                    }
                }
                out.attribute_groups.push((name, attrs));
            }
            Some("annotation") | Some("import") | Some("include") => {}
            Some(other) => {
                return Err(SyntaxError::new(format!(
                    "unsupported top-level construct <{other}>"
                )))
            }
            None => {}
        }
    }
    Ok(out)
}

fn required_attr(doc: &Document, node: NodeId, name: &str) -> Result<String, SyntaxError> {
    doc.attribute(node, name).map(str::to_owned).ok_or_else(|| {
        SyntaxError::new(format!(
            "<{}> is missing required attribute {name:?}",
            doc.name(node).unwrap_or("?")
        ))
    })
}

/// Reads an element declaration `depth` levels deep (see
/// [`MAX_NESTING`]); so do the readers below.
fn read_element(doc: &Document, node: NodeId, depth: u32) -> Result<ElementDecl, SyntaxError> {
    let name = required_attr(doc, node, "name")?;
    let inline = doc
        .element_children(node)
        .find(|&c| doc.local_name(c) == Some("complexType"));
    let inline_simple = doc
        .element_children(node)
        .find(|&c| doc.local_name(c) == Some("simpleType"));
    let type_ref = match (doc.attribute(node, "type"), inline, inline_simple) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) | (None, Some(_), Some(_)) => {
            return Err(SyntaxError::new(format!(
                "element {name} has more than one type specification"
            )))
        }
        (Some(t), None, None) => {
            if is_xs_qname(t) {
                TypeRef::Simple(SimpleType::from_qname(t), Facets::default())
            } else {
                TypeRef::Named(strip_prefix(t).to_owned())
            }
        }
        (None, Some(ct), None) => TypeRef::Inline(Box::new(read_complex_type(doc, ct, depth)?)),
        (None, None, Some(st)) => {
            let (base, facets) = read_simple_type(doc, st)?;
            TypeRef::Simple(base, facets)
        }
        (None, None, None) => TypeRef::Empty,
    };
    Ok(ElementDecl { name, type_ref })
}

fn read_complex_type(doc: &Document, node: NodeId, depth: u32) -> Result<ComplexType, SyntaxError> {
    let depth = nest(depth)?;
    let mut ct = ComplexType {
        mixed: doc.attribute(node, "mixed") == Some("true"),
        ..ComplexType::default()
    };
    for child in doc.element_children(node) {
        match doc.local_name(child) {
            Some("sequence") | Some("choice") | Some("all") => {
                if ct.particle.is_some() {
                    return Err(SyntaxError::new("complexType has multiple model groups"));
                }
                ct.particle = Some(read_particle(doc, child, depth)?);
            }
            Some("group") => {
                if ct.particle.is_some() {
                    return Err(SyntaxError::new("complexType has multiple model groups"));
                }
                let name = required_attr(doc, child, "ref")?;
                ct.particle = Some(Particle::GroupRef {
                    name: strip_prefix(&name).to_owned(),
                    occurs: read_occurs(doc, child)?,
                });
            }
            Some("attribute") => ct.attributes.push(read_attribute(doc, child)?),
            Some("attributeGroup") => {
                let name = required_attr(doc, child, "ref")?;
                ct.attr_group_refs.push(strip_prefix(&name).to_owned());
            }
            Some("simpleContent") => read_simple_content(doc, child, &mut ct)?,
            Some("annotation") => {}
            Some(other) => {
                return Err(SyntaxError::new(format!(
                    "unsupported construct <{other}> in complexType"
                )))
            }
            None => {}
        }
    }
    Ok(ct)
}

/// Reads an `<xs:simpleContent>` child of a complex type into `ct`.
/// Kept out of [`read_complex_type`], which recurses per nesting level,
/// so that its frame stays small.
fn read_simple_content(
    doc: &Document,
    child: NodeId,
    ct: &mut ComplexType,
) -> Result<(), SyntaxError> {
    // <xs:simpleContent><xs:extension base="xs:…"> attrs …, or
    // <xs:restriction base="xs:…"> facets + attrs (the form the
    // emitter uses when facets are present).
    let ext = doc
        .element_children(child)
        .find(|&c| matches!(doc.local_name(c), Some("extension" | "restriction")))
        .ok_or_else(|| SyntaxError::new("simpleContent without extension"))?;
    let base = required_attr(doc, ext, "base")?;
    if !is_xs_qname(&base) {
        return Err(SyntaxError::new(format!(
            "simpleContent base {base:?} must be an xs: built-in"
        )));
    }
    ct.mixed = false;
    ct.particle = None;
    let mut facets = Facets::default();
    for a in doc.element_children(ext) {
        match doc.local_name(a) {
            Some("attribute") => ct.attributes.push(read_attribute(doc, a)?),
            Some("attributeGroup") => {
                let name = required_attr(doc, a, "ref")?;
                ct.attr_group_refs.push(strip_prefix(&name).to_owned());
            }
            Some("minInclusive") => facets.min_inclusive = Some(required_attr(doc, a, "value")?),
            Some("maxInclusive") => facets.max_inclusive = Some(required_attr(doc, a, "value")?),
            Some("minLength") => {
                let v = required_attr(doc, a, "value")?;
                facets.min_length = Some(
                    v.parse()
                        .map_err(|_| SyntaxError::new(format!("bad minLength {v:?}")))?,
                );
            }
            Some("maxLength") => {
                let v = required_attr(doc, a, "value")?;
                facets.max_length = Some(
                    v.parse()
                        .map_err(|_| SyntaxError::new(format!("bad maxLength {v:?}")))?,
                );
            }
            Some("enumeration") => facets.enumeration.push(required_attr(doc, a, "value")?),
            Some("annotation") => {}
            // Mirror read_simple_type: an unrecognized facet
            // (xs:pattern, xs:whiteSpace, xs:fractionDigits, …)
            // must fail loudly. Silently dropping it would
            // accept the schema while enforcing strictly less
            // than it declares.
            Some(other) => {
                return Err(SyntaxError::new(format!(
                    "unsupported facet xs:{other} in simpleContent"
                )))
            }
            None => {}
        }
    }
    let base = SimpleType::from_qname(&base);
    facets
        .check(base)
        .map_err(|e| SyntaxError::new(format!("invalid restriction of {}: {e}", base.qname())))?;
    ct.simple_base = Some((base, facets));
    Ok(())
}

fn read_particle(doc: &Document, node: NodeId, depth: u32) -> Result<Particle, SyntaxError> {
    let depth = nest(depth)?;
    let occurs = read_occurs(doc, node)?;
    match doc.local_name(node) {
        Some("element") => Ok(Particle::Element {
            decl: read_element(doc, node, depth)?,
            occurs,
        }),
        Some("sequence") | Some("choice") => {
            let mut items = Vec::new();
            for child in doc.element_children(node) {
                match doc.local_name(child) {
                    Some("annotation") => {}
                    Some("group") => {
                        let name = required_attr(doc, child, "ref")?;
                        items.push(Particle::GroupRef {
                            name: strip_prefix(&name).to_owned(),
                            occurs: read_occurs(doc, child)?,
                        });
                    }
                    _ => items.push(read_particle(doc, child, depth)?),
                }
            }
            if doc.local_name(node) == Some("sequence") {
                Ok(Particle::Sequence { items, occurs })
            } else {
                Ok(Particle::Choice { items, occurs })
            }
        }
        Some("all") => {
            if !occurs.is_once() {
                return Err(SyntaxError::new("xs:all cannot carry occurrence bounds"));
            }
            let mut items = Vec::new();
            for child in doc.element_children(node) {
                if doc.local_name(child) == Some("annotation") {
                    continue;
                }
                if doc.local_name(child) != Some("element") {
                    return Err(SyntaxError::new(
                        "xs:all may only contain element declarations",
                    ));
                }
                items.push(read_particle(doc, child, depth)?);
            }
            Ok(Particle::All { items })
        }
        Some(other) => Err(SyntaxError::new(format!("unsupported particle <{other}>"))),
        None => Err(SyntaxError::new("text where a particle was expected")),
    }
}

fn read_occurs(doc: &Document, node: NodeId) -> Result<Occurs, SyntaxError> {
    let min = match doc.attribute(node, "minOccurs") {
        None => 1,
        Some(v) => v
            .parse()
            .map_err(|_| SyntaxError::new(format!("bad minOccurs {v:?}")))?,
    };
    let max = match doc.attribute(node, "maxOccurs") {
        None => UpperBound::Finite(1),
        Some("unbounded") => UpperBound::Unbounded,
        Some(v) => UpperBound::Finite(
            v.parse()
                .map_err(|_| SyntaxError::new(format!("bad maxOccurs {v:?}")))?,
        ),
    };
    if let UpperBound::Finite(m) = max {
        if m < min {
            return Err(SyntaxError::new(format!(
                "maxOccurs {m} below minOccurs {min}"
            )));
        }
    }
    Ok(Occurs { min, max })
}

fn read_attribute(doc: &Document, node: NodeId) -> Result<AttributeUse, SyntaxError> {
    let name = required_attr(doc, node, "name")?;
    let required = doc.attribute(node, "use") == Some("required");
    // Either a type attribute or an inline <xs:simpleType> restriction.
    let inline = doc
        .element_children(node)
        .find(|&c| doc.local_name(c) == Some("simpleType"));
    let (simple_type, facets) = match (doc.attribute(node, "type"), inline) {
        (Some(_), Some(_)) => {
            return Err(SyntaxError::new(format!(
                "attribute {name} has both a type attribute and an inline simple type"
            )))
        }
        (Some(t), None) => (SimpleType::from_qname(t), Facets::default()),
        (None, Some(st)) => read_simple_type(doc, st)?,
        (None, None) => (SimpleType::AnySimpleType, Facets::default()),
    };
    Ok(AttributeUse {
        name,
        required,
        simple_type,
        facets,
    })
}

/// Reads `<xs:simpleType><xs:restriction base=…> facet… </…></…>`.
pub(crate) fn read_simple_type(
    doc: &Document,
    node: NodeId,
) -> Result<(SimpleType, Facets), SyntaxError> {
    let restriction = doc
        .element_children(node)
        .find(|&c| doc.local_name(c) == Some("restriction"))
        .ok_or_else(|| SyntaxError::new("simpleType without restriction"))?;
    let base = required_attr(doc, restriction, "base")?;
    let base = SimpleType::from_qname(&base);
    let mut facets = Facets::default();
    for f in doc.element_children(restriction) {
        let value = required_attr(doc, f, "value")?;
        match doc.local_name(f) {
            Some("minInclusive") => facets.min_inclusive = Some(value),
            Some("maxInclusive") => facets.max_inclusive = Some(value),
            Some("minLength") => {
                facets.min_length = Some(
                    value
                        .parse()
                        .map_err(|_| SyntaxError::new(format!("bad minLength {value:?}")))?,
                )
            }
            Some("maxLength") => {
                facets.max_length = Some(
                    value
                        .parse()
                        .map_err(|_| SyntaxError::new(format!("bad maxLength {value:?}")))?,
                )
            }
            Some("enumeration") => facets.enumeration.push(value),
            Some(other) => return Err(SyntaxError::new(format!("unsupported facet xs:{other}"))),
            None => {}
        }
    }
    facets
        .check(base)
        .map_err(|e| SyntaxError::new(format!("invalid restriction of {}: {e}", base.qname())))?;
    Ok((base, facets))
}

/// Whether a QName refers to the XML Schema namespace's built-in types
/// (recognized by the conventional `xs:`/`xsd:` prefixes).
fn is_xs_qname(qname: &str) -> bool {
    qname
        .split_once(':')
        .is_some_and(|(p, _)| p == "xs" || p == "xsd")
}

fn strip_prefix(qname: &str) -> &str {
    qname.rsplit_once(':').map_or(qname, |(_, l)| l)
}
