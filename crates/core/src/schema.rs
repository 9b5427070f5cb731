//! [`BonxaiSchema`]: the user-facing schema object tying together the
//! surface syntax, the formal core, and integrity constraints.

use std::fmt;
use std::sync::{Arc, OnceLock};

use xmltree::Document;
use xsd::violation::Violation;

use crate::bxsd::Bxsd;
use crate::constraints::ConstraintViolation;
use crate::lang::{self, LangError, SchemaAst};
use crate::validate::{BxsdReport, CompiledBxsd, CompiledTables, ValidateOptions};

/// A complete BonXai schema: parsed surface form plus its lowered core.
///
/// ```
/// use bonxai_core::BonxaiSchema;
/// let schema = BonxaiSchema::parse(r#"
///     global { note }
///     grammar {
///       note = { element to, element body }
///       to   = { type xs:string }
///       body = mixed { }
///     }
/// "#).unwrap();
/// let doc = xmltree::parse_document("<note><to>Ada</to><body>hi</body></note>").unwrap();
/// assert!(schema.validate(&doc).is_valid());
/// ```
///
/// The schema compiles itself once, on first validation, with the
/// default product budget ([`Self::compiled`]); every later validation,
/// and every clone taken after the first, reuses that compile. Parsing
/// and building compile nothing, so callers that only analyse or
/// translate schemas never pay for it. The compile reflects `bxsd` as
/// it was at first use: a caller that edits the public fields should
/// do so before validating, or build a fresh schema from the result.
#[derive(Clone)]
pub struct BonxaiSchema {
    /// The surface AST (groups, namespaces, constraints, rule order).
    pub ast: SchemaAst,
    /// The lowered formal core.
    pub bxsd: Bxsd,
    /// For each BXSD rule, the source rule index in `ast.rules`.
    pub rule_source: Vec<usize>,
    /// `bxsd`'s compile, filled on first use.
    tables: OnceLock<Arc<CompiledTables>>,
}

impl fmt::Debug for BonxaiSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BonxaiSchema")
            .field("ast", &self.ast)
            .field("bxsd", &self.bxsd)
            .field("rule_source", &self.rule_source)
            .finish_non_exhaustive()
    }
}

// Schemas are shared by reference across threads (scoped workers, the
// batch pool), which the once-filled compile must not prevent.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<BonxaiSchema>();
};

/// A full validation report: structural violations plus constraint
/// violations.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// The structural (rule-based) report, with matched-rule info.
    pub structure: BxsdReport,
    /// Integrity-constraint violations.
    pub constraints: Vec<ConstraintViolation>,
}

impl ValidationReport {
    /// Whether the document conforms (structure and constraints).
    pub fn is_valid(&self) -> bool {
        self.structure.is_valid() && self.constraints.is_empty()
    }

    /// All structural violations.
    pub fn violations(&self) -> &[Violation] {
        &self.structure.violations
    }
}

impl BonxaiSchema {
    /// Parses and lowers a schema from BonXai compact syntax.
    pub fn parse(source: &str) -> Result<BonxaiSchema, LangError> {
        let ast = lang::parse_schema(source)?;
        Self::from_ast(ast)
    }

    /// Builds a schema from an already-parsed AST.
    pub fn from_ast(ast: SchemaAst) -> Result<BonxaiSchema, LangError> {
        let lowered = lang::lower(&ast)?;
        Ok(BonxaiSchema {
            ast,
            bxsd: lowered.bxsd,
            rule_source: lowered.rule_source,
            tables: OnceLock::new(),
        })
    }

    /// Builds a schema object from a formal BXSD (lifting it to surface
    /// syntax for display).
    pub fn from_bxsd(bxsd: Bxsd) -> BonxaiSchema {
        let ast = lang::lift(&bxsd);
        let rule_source = (0..bxsd.n_rules()).collect();
        BonxaiSchema {
            ast,
            bxsd,
            rule_source,
            tables: OnceLock::new(),
        }
    }

    /// The schema's compiled validator. The first call compiles `bxsd`
    /// as [`CompiledBxsd::new`] does (racing first calls wait for one
    /// compile); every later call, on this schema or a clone taken
    /// since, is a view of the same tables.
    pub fn compiled(&self) -> CompiledBxsd<'_> {
        let tables = self
            .tables
            .get_or_init(|| CompiledBxsd::new(&self.bxsd).tables);
        CompiledBxsd {
            bxsd: &self.bxsd,
            tables: Arc::clone(tables),
        }
    }

    /// Validates a document: rule structure + integrity constraints.
    pub fn validate(&self, doc: &Document) -> ValidationReport {
        self.validate_with(doc, ValidateOptions::default())
    }

    /// Validates a document with explicit [`ValidateOptions`] (e.g. to
    /// record per-node rule matches for highlighting), on
    /// [`Self::compiled`].
    pub fn validate_with(&self, doc: &Document, opts: ValidateOptions) -> ValidationReport {
        let structure = self.compiled().validate_with(doc, opts);
        let constraints =
            crate::constraints::check_constraints(&self.ast.constraints, &self.bxsd.ename, doc);
        ValidationReport {
            structure,
            constraints,
        }
    }

    /// Whether `doc` conforms to the schema.
    pub fn is_valid(&self, doc: &Document) -> bool {
        self.validate(doc).is_valid()
    }

    /// Renders the schema in BonXai compact syntax.
    pub fn to_source(&self) -> String {
        let names: Vec<String> = self
            .bxsd
            .ename
            .entries()
            .map(|(_, n)| n.to_owned())
            .collect();
        lang::print_schema(&self.ast, &names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmltree::parse_document;

    const SCHEMA: &str = r#"
        global { library }
        grammar {
          library = { (element book)* }
          book = { attribute id, element title, (element author)+ }
          title = mixed { }
          author = mixed { }
          @id = { type xs:NMTOKEN }
        }
        constraints {
          key bookKey = //book { @id }
        }
    "#;

    #[test]
    fn parse_validate_roundtrip() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let good = parse_document(
            r#"<library>
                 <book id="b1"><title>T</title><author>A</author></book>
                 <book id="b2"><title>U</title><author>B</author><author>C</author></book>
               </library>"#,
        )
        .unwrap();
        let r = schema.validate(&good);
        assert!(
            r.is_valid(),
            "{:?} {:?}",
            r.structure.violations,
            r.constraints
        );
    }

    #[test]
    fn constraint_violations_reported() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let dup = parse_document(
            r#"<library>
                 <book id="b1"><title>T</title><author>A</author></book>
                 <book id="b1"><title>U</title><author>B</author></book>
               </library>"#,
        )
        .unwrap();
        let r = schema.validate(&dup);
        assert!(r.structure.is_valid());
        assert!(!r.is_valid());
        assert_eq!(r.constraints.len(), 1);
    }

    #[test]
    fn to_source_reparses() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let printed = schema.to_source();
        let again = BonxaiSchema::parse(&printed).unwrap();
        let doc = parse_document(
            r#"<library><book id="x"><title>T</title><author>A</author></book></library>"#,
        )
        .unwrap();
        assert_eq!(schema.is_valid(&doc), again.is_valid(&doc));
    }

    #[test]
    fn compiles_once_on_first_use_and_clones_share_it() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        assert!(schema.tables.get().is_none(), "parsing compiles nothing");
        let early = schema.clone();
        let doc = parse_document(r#"<library><book id="b"/></library>"#).unwrap();
        let first = schema.validate(&doc);
        let tables = Arc::clone(schema.tables.get().expect("compiled on first use"));
        let repeat = schema.validate(&doc);
        assert_eq!(first.structure.violations, repeat.structure.violations);
        assert!(Arc::ptr_eq(&tables, &schema.compiled().tables));
        // A clone taken after the first use shares the compile …
        let late = schema.clone();
        assert!(Arc::ptr_eq(&tables, late.tables.get().expect("shared")));
        assert!(Arc::ptr_eq(&tables, &late.compiled().tables));
        // … one taken before compiles its own on its first use.
        assert!(early.tables.get().is_none());
        assert_eq!(
            early.validate(&doc).structure.violations,
            first.structure.violations
        );
        assert!(!Arc::ptr_eq(&tables, &early.compiled().tables));
        let from_bxsd = BonxaiSchema::from_bxsd(schema.bxsd.clone());
        assert!(
            from_bxsd.tables.get().is_none(),
            "building compiles nothing"
        );
    }

    #[test]
    fn racing_first_calls_share_one_compile() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let doc = parse_document(
            r#"<library><book id="b1"><title>T</title><author>A</author></book>
               <book id="b1"><title>U</title></book></library>"#,
        )
        .unwrap();
        let opts = ValidateOptions {
            record_matches: true,
            force_lockstep: false,
        };
        let barrier = std::sync::Barrier::new(2);
        let [(a, ta), (b, tb)] = std::thread::scope(|s| {
            let run = || {
                barrier.wait();
                let report = schema.validate_with(&doc, opts);
                (report, Arc::clone(&schema.compiled().tables))
            };
            let one = s.spawn(run);
            let two = s.spawn(run);
            [one.join().unwrap(), two.join().unwrap()]
        });
        assert!(Arc::ptr_eq(&ta, &tb), "one compile serves both threads");
        assert_eq!(a.structure.violations, b.structure.violations);
        assert_eq!(a.structure.matches, b.structure.matches);
        assert_eq!(a.constraints, b.constraints);
        assert!(!a.is_valid());
    }

    #[test]
    fn structural_error_beats_constraints() {
        let schema = BonxaiSchema::parse(SCHEMA).unwrap();
        let bad = parse_document(r#"<library><book id="b"/></library>"#).unwrap();
        let r = schema.validate(&bad);
        assert!(!r.structure.is_valid());
    }
}
