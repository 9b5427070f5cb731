//! The practical BonXai language (Section 3): compact syntax, parser,
//! printer, and the lowering to / lifting from the formal BXSD core.

pub mod ast;
pub mod lexer;
pub mod lift;
pub mod lower;
pub mod parser;
pub mod printer;

pub use ast::{
    AncestorPattern, AttributeItem, ChildPattern, Particle, PathExpr, RuleAst, RuleBody, SchemaAst,
    Span,
};
pub use lexer::LangError;
pub use lift::lift;
pub use lower::{lower, lower_lenient, LowerIssue, Lowered, LoweredLenient};
pub use parser::{parse_ancestor_pattern, parse_schema, MAX_NESTING};
pub use printer::print_schema;
