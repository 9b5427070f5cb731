//! XSD XML syntax: reading `<xs:schema>` documents into the formal core
//! model and writing the core model back out.
//!
//! ```
//! let source = r#"
//!   <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
//!     <xs:element name="doc" type="Tdoc"/>
//!     <xs:complexType name="Tdoc">
//!       <xs:sequence>
//!         <xs:element name="title" type="xs:string"/>
//!         <xs:element name="section" type="Tsec" minOccurs="0" maxOccurs="unbounded"/>
//!       </xs:sequence>
//!     </xs:complexType>
//!     <xs:complexType name="Tsec" mixed="true">
//!       <xs:attribute name="title" type="xs:string" use="required"/>
//!     </xs:complexType>
//!   </xs:schema>"#;
//! let xsd = xsd::syntax::parse_xsd(source).unwrap();
//! assert_eq!(xsd.root_names().len(), 1);
//! let emitted = xsd::syntax::emit_xsd(&xsd, None).unwrap();
//! let back = xsd::syntax::parse_xsd(&emitted).unwrap();
//! assert_eq!(back.n_types(), xsd.n_types());
//! ```

pub mod ast;
pub mod emit;
pub mod lower;
pub mod parse;

pub use ast::{ComplexType, ElementDecl, Occurs, Particle, SchemaDoc, TypeRef};
pub use emit::emit_xsd;
pub use parse::{read_schema_doc, SyntaxError, MAX_NESTING};

use crate::model::Xsd;

/// Parses XSD XML text into the formal core model.
pub fn parse_xsd(source: &str) -> Result<Xsd, SyntaxError> {
    let doc = xmltree::parse_document(source)
        .map_err(|e| SyntaxError::new(format!("not well-formed XML: {e}")))?;
    parse_xsd_doc(&doc)
}

/// Parses an already-parsed `<xs:schema>` document into the core model.
pub fn parse_xsd_doc(doc: &xmltree::Document) -> Result<Xsd, SyntaxError> {
    let surface = read_schema_doc(doc)?;
    lower::lower(&surface)
}

/// Parses XSD XML text without the final core checks (UPA, child-typing
/// completeness); see [`crate::model::Xsd::new_unchecked`]. Well-formedness
/// and structural errors are still hard errors.
pub fn parse_xsd_unchecked(source: &str) -> Result<Xsd, SyntaxError> {
    let doc = xmltree::parse_document(source)
        .map_err(|e| SyntaxError::new(format!("not well-formed XML: {e}")))?;
    let surface = read_schema_doc(&doc)?;
    lower::lower_unchecked(&surface)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::is_valid;
    use xmltree::builder::elem;

    const MARKUP_XSD: &str = r#"
      <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema"
                 targetNamespace="http://mydomain.org/namespace">
        <xs:element name="document" type="Tdocument"/>
        <xs:complexType name="Tdocument">
          <xs:sequence>
            <xs:element name="template" type="Ttemplate"/>
            <xs:element name="content" type="Tcontent"/>
          </xs:sequence>
        </xs:complexType>
        <xs:complexType name="Ttemplate">
          <xs:sequence>
            <xs:element name="section" minOccurs="0" type="TtemplateSection"/>
          </xs:sequence>
        </xs:complexType>
        <xs:complexType name="Tcontent">
          <xs:sequence>
            <xs:element name="section" minOccurs="0" maxOccurs="unbounded" type="Tsection"/>
          </xs:sequence>
        </xs:complexType>
        <xs:complexType name="TtemplateSection">
          <xs:sequence>
            <xs:element name="section" type="TtemplateSection" minOccurs="0"/>
          </xs:sequence>
        </xs:complexType>
        <xs:complexType name="Tsection" mixed="true">
          <xs:choice minOccurs="0" maxOccurs="unbounded">
            <xs:element name="section" type="Tsection"/>
            <xs:element name="bold" type="xs:string"/>
          </xs:choice>
          <xs:attribute name="title" type="xs:string" use="required"/>
        </xs:complexType>
      </xs:schema>"#;

    #[test]
    fn parses_figure3_style_schema() {
        let x = parse_xsd(MARKUP_XSD).unwrap();
        assert_eq!(x.root_names().len(), 1);
        // named types + the shared xs:string simple type
        assert_eq!(x.n_types(), 6);
        let t_sec = x.type_by_name("Tsection").unwrap();
        assert!(x.content(t_sec).mixed);
        assert_eq!(x.content(t_sec).attributes[0].name, "title");
    }

    #[test]
    fn parsed_schema_validates_documents() {
        let x = parse_xsd(MARKUP_XSD).unwrap();
        let good = elem("document")
            .child(elem("template").child(elem("section")))
            .child(
                elem("content")
                    .child(elem("section").attr("title", "Intro").text("hi "))
                    .child(elem("section").attr("title", "More")),
            )
            .build();
        assert!(is_valid(&x, &good));
        // template section with a title → undeclared attribute
        let bad = elem("document")
            .child(elem("template").child(elem("section").attr("title", "nope")))
            .child(elem("content"))
            .build();
        assert!(!is_valid(&x, &bad));
    }

    #[test]
    fn roundtrip_through_emission() {
        let x = parse_xsd(MARKUP_XSD).unwrap();
        let emitted = emit_xsd(&x, Some("http://mydomain.org/namespace")).unwrap();
        let back = parse_xsd(&emitted).unwrap();
        assert_eq!(back.n_types(), x.n_types());
        // language agreement on sample documents
        let docs = [
            elem("document")
                .child(elem("template"))
                .child(elem("content").child(elem("section").attr("title", "t")))
                .build(),
            elem("document").child(elem("content")).build(), // invalid
        ];
        for d in &docs {
            assert_eq!(is_valid(&x, d), is_valid(&back, d));
        }
    }

    #[test]
    fn inline_anonymous_types() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc">
              <xs:complexType>
                <xs:sequence>
                  <xs:element name="leaf" type="xs:integer"/>
                </xs:sequence>
              </xs:complexType>
            </xs:element>
          </xs:schema>"#;
        let x = parse_xsd(src).unwrap();
        assert_eq!(x.root_names().len(), 1);
        let good = elem("doc").child(elem("leaf").text("42")).build();
        assert!(is_valid(&x, &good));
        let bad = elem("doc").child(elem("leaf").text("forty-two")).build();
        assert!(!is_valid(&x, &bad));
    }

    #[test]
    fn groups_and_attribute_groups_expand() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="Tdoc"/>
            <xs:group name="markup">
              <xs:choice>
                <xs:element name="bold" type="xs:string"/>
                <xs:element name="italic" type="xs:string"/>
              </xs:choice>
            </xs:group>
            <xs:attributeGroup name="fontattr">
              <xs:attribute name="name" type="xs:string"/>
              <xs:attribute name="size" type="xs:integer"/>
            </xs:attributeGroup>
            <xs:complexType name="Tdoc" mixed="true">
              <xs:sequence>
                <xs:group ref="markup" minOccurs="0" maxOccurs="unbounded"/>
              </xs:sequence>
              <xs:attributeGroup ref="fontattr"/>
            </xs:complexType>
          </xs:schema>"#;
        let x = parse_xsd(src).unwrap();
        let t = x.type_by_name("Tdoc").unwrap();
        assert_eq!(x.content(t).attributes.len(), 2);
        let good = elem("doc")
            .attr("size", "12")
            .child(elem("bold").text("b"))
            .child(elem("italic").text("i"))
            .build();
        assert!(is_valid(&x, &good));
    }

    #[test]
    fn xs_all_parses_and_validates() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="T"/>
            <xs:complexType name="T">
              <xs:all>
                <xs:element name="a" type="xs:string"/>
                <xs:element name="b" type="xs:string" minOccurs="0"/>
              </xs:all>
            </xs:complexType>
          </xs:schema>"#;
        let x = parse_xsd(src).unwrap();
        for (children, ok) in [
            (vec!["a"], true),
            (vec!["a", "b"], true),
            (vec!["b", "a"], true),
            (vec!["b"], false),
            (vec!["a", "b", "b"], false),
        ] {
            let mut b = elem("doc");
            for c in &children {
                b = b.child(elem(c).text("x"));
            }
            let d = b.build();
            assert_eq!(is_valid(&x, &d), ok, "{children:?}");
        }
    }

    #[test]
    fn edc_violation_detected() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="T"/>
            <xs:complexType name="T">
              <xs:sequence>
                <xs:element name="a" type="xs:string"/>
                <xs:element name="a" type="xs:integer"/>
              </xs:sequence>
            </xs:complexType>
          </xs:schema>"#;
        let err = parse_xsd(src).unwrap_err();
        assert!(err.message.contains("EDC"), "{err}");
    }

    #[test]
    fn upa_violation_detected() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="T"/>
            <xs:complexType name="T">
              <xs:sequence>
                <xs:choice minOccurs="0" maxOccurs="unbounded">
                  <xs:element name="a" type="xs:string"/>
                  <xs:element name="b" type="xs:string"/>
                </xs:choice>
                <xs:element name="a" type="xs:string"/>
              </xs:sequence>
            </xs:complexType>
          </xs:schema>"#;
        let err = parse_xsd(src).unwrap_err();
        assert!(err.message.contains("UPA"), "{err}");
    }

    #[test]
    fn cyclic_groups_rejected() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="T"/>
            <xs:group name="g">
              <xs:sequence><xs:group ref="g"/></xs:sequence>
            </xs:group>
            <xs:complexType name="T">
              <xs:sequence><xs:group ref="g"/></xs:sequence>
            </xs:complexType>
          </xs:schema>"#;
        let err = parse_xsd(src).unwrap_err();
        assert!(err.message.contains("cyclic"), "{err}");
    }

    #[test]
    fn unknown_type_reference_rejected() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="doc" type="Missing"/>
          </xs:schema>"#;
        assert!(parse_xsd(src).is_err());
    }

    #[test]
    fn invalid_facet_bounds_rejected_at_parse() {
        // Regression: an unparseable numeric bound used to survive
        // schema parsing and then compare as NaN at validation time.
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="n">
              <xs:simpleType>
                <xs:restriction base="xs:integer">
                  <xs:maxInclusive value="ten"/>
                </xs:restriction>
              </xs:simpleType>
            </xs:element>
          </xs:schema>"#;
        let err = parse_xsd(src).unwrap_err();
        assert!(err.message.contains("invalid restriction"), "{err}");
        let inverted = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="n">
              <xs:simpleType>
                <xs:restriction base="xs:decimal">
                  <xs:minInclusive value="2.50"/>
                  <xs:maxInclusive value="2.5"/>
                </xs:restriction>
              </xs:simpleType>
            </xs:element>
          </xs:schema>"#;
        // equal after decimal normalization: not inverted, parses fine
        assert!(parse_xsd(inverted).is_ok());
        let truly_inverted = inverted.replace("2.50", "2.51");
        assert!(parse_xsd(&truly_inverted).is_err());
    }

    #[test]
    fn simple_content_with_attributes() {
        let src = r#"
          <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
            <xs:element name="price" type="Tprice"/>
            <xs:complexType name="Tprice">
              <xs:simpleContent>
                <xs:extension base="xs:decimal">
                  <xs:attribute name="currency" type="xs:string" use="required"/>
                </xs:extension>
              </xs:simpleContent>
            </xs:complexType>
          </xs:schema>"#;
        let x = parse_xsd(src).unwrap();
        let good = elem("price").attr("currency", "EUR").text("12.50").build();
        assert!(is_valid(&x, &good));
        let bad = elem("price").attr("currency", "EUR").text("cheap").build();
        assert!(!is_valid(&x, &bad));
        // emission keeps simpleContent
        let emitted = emit_xsd(&x, None).unwrap();
        assert!(emitted.contains("simpleContent"));
        let back = parse_xsd(&emitted).unwrap();
        assert!(is_valid(&back, &good));
        assert!(!is_valid(&back, &bad));
    }
}
