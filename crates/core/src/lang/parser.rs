//! Parser for the BonXai compact syntax (the language of Figures 4/5).
//!
//! Operator precedence in child patterns, loosest to tightest:
//! `,` (top-level item list and in-parens sequencing), `|`, `&`, postfix
//! (`*`, `+`, `?`, `{n,m}`). Attribute items (`attribute x?`,
//! `attribute-group g`) may only appear as top-level comma items of a
//! rule body or attribute group — they are not part of the children
//! regex.
//!
//! Ancestor patterns follow Section 3.1: `/` is one child step, `//` a
//! descendant gap, and a pattern whose first meaningful token is a name
//! or `@` implicitly starts with `//` (so a bare label matches all
//! elements of that name, as in DTDs). Attribute names may only appear at
//! the end.

use xsd::{simple_types::Facets, SimpleType};

use crate::constraints::{Constraint, ConstraintKind, Field};
use crate::lang::ast::{
    AncestorPattern, AttributeItem, ChildPattern, Particle, PathExpr, RuleAst, RuleBody, SchemaAst,
    Span,
};
use crate::lang::lexer::{LangError, Lexer, Spanned, Tok};

/// The source span covered by a rule's left-hand-side token run.
fn lhs_span(lhs: &[Spanned]) -> Span {
    match (lhs.first(), lhs.last()) {
        (Some(a), Some(b)) => Span {
            line: a.line,
            col: a.col,
            offset: a.offset,
            len: b.offset + b.tok.to_string().len() - a.offset,
        },
        _ => Span::default(),
    }
}

/// Deepest nesting accepted in an ancestor pattern, constraint selector
/// or rule body. Each parenthesised group, each postfix operator (`*`,
/// `+`, `?`, `{n,m}`) and each list of two or more items (joined by
/// `,`, `|`, `&` or path steps) is one level, counted along the deepest
/// path of the expression: `(element a*, element b)?` is four deep (the
/// `?`, the group, the list and the `*`). The parser recurses per
/// group, and lowering, printing, linting and the automaton
/// constructions recurse per level, so unbounded nesting would overflow
/// the stack, which aborts rather than unwinds. Groups are counted
/// before the parser recurses, everything else as it is parsed. At the
/// cap, every `bonxai` command fits in 4 MiB of stack in a release
/// build, half of what its main thread and pool workers get. The
/// printer spends at most three levels (group, list, operator) per
/// nested DTD group or XSD particle, so the cap accepts every DTD within
/// the DTD parser's limit of 512 nested groups, and XSD particles
/// nested 682 deep.
pub const MAX_NESTING: u32 = 2048;

/// Rejects a pattern or body whose parentheses nest deeper than
/// [`MAX_NESTING`], in one pass over its tokens, before the recursive
/// descent would recurse that deep.
fn check_groups(toks: &[Spanned]) -> Result<(), LangError> {
    let mut open = 0u32;
    for t in toks {
        match t.tok {
            Tok::LParen => {
                open += 1;
                if open > MAX_NESTING {
                    return Err(too_deep(t));
                }
            }
            Tok::RParen => open = open.saturating_sub(1),
            _ => {}
        }
    }
    Ok(())
}

#[cold]
#[inline(never)]
fn too_deep(tok: &Spanned) -> LangError {
    LangError::at(
        tok,
        format!("expression nested more than {MAX_NESTING} levels deep"),
    )
}

/// Nesting of the expression parsed last, checked against
/// [`MAX_NESTING`] as groups, operators and lists wrap it.
#[derive(Default)]
struct Nesting {
    last: u32,
}

impl Nesting {
    /// The expression parsed last is wrapped once more, by the group
    /// closing or the postfix operator at `tok`.
    fn wrap(&mut self, tok: &Spanned) -> Result<(), LangError> {
        self.last += 1;
        if self.last > MAX_NESTING {
            return Err(too_deep(tok));
        }
        Ok(())
    }

    /// A list of `items` expressions, ending at `tok`, whose deepest is
    /// `deepest` levels deep, becomes the expression parsed last.
    fn join(&mut self, deepest: u32, items: usize, tok: &Spanned) -> Result<(), LangError> {
        self.last = deepest;
        if items > 1 {
            self.wrap(tok)?;
        }
        Ok(())
    }
}

/// Parses a BonXai schema source file.
pub fn parse_schema(src: &str) -> Result<SchemaAst, LangError> {
    Parser::new(src).parse()
}

/// Parses a standalone ancestor pattern (used by tests and tools).
pub fn parse_ancestor_pattern(src: &str) -> Result<AncestorPattern, LangError> {
    let mut lexer = Lexer::new(src);
    let mut toks = Vec::new();
    while let Some(t) = lexer.next_token()? {
        toks.push(t);
    }
    PatternParser::new(&toks, src).parse_full()
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    src: &'a str,
    peeked: Option<Spanned>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            lexer: Lexer::new(src),
            src,
            peeked: None,
        }
    }

    fn peek(&mut self) -> Result<Option<&Spanned>, LangError> {
        if self.peeked.is_none() {
            self.peeked = self.lexer.next_token()?;
        }
        Ok(self.peeked.as_ref())
    }

    fn next(&mut self) -> Result<Option<Spanned>, LangError> {
        if let Some(t) = self.peeked.take() {
            return Ok(Some(t));
        }
        self.lexer.next_token()
    }

    fn expect_tok(&mut self, tok: &Tok) -> Result<Spanned, LangError> {
        match self.next()? {
            Some(t) if t.tok == *tok => Ok(t),
            Some(t) => Err(LangError::at(
                &t,
                format!("expected {tok}, found {}", t.tok),
            )),
            None => Err(LangError::new(
                0,
                0,
                format!("expected {tok}, found end of input"),
            )),
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Spanned), LangError> {
        match self.next()? {
            Some(t) => match &t.tok {
                Tok::Ident(s) => Ok((s.clone(), t)),
                other => Err(LangError::at(&t, format!("expected a name, found {other}"))),
            },
            None => Err(LangError::new(0, 0, "expected a name, found end of input")),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), LangError> {
        let (name, t) = self.expect_ident()?;
        if name == kw {
            Ok(())
        } else {
            Err(LangError::at(
                &t,
                format!("expected {kw:?}, found {name:?}"),
            ))
        }
    }

    #[allow(clippy::while_let_loop)] // `?` inside the condition
    fn parse(mut self) -> Result<SchemaAst, LangError> {
        let mut ast = SchemaAst::default();
        loop {
            let Some(t) = self.peek()? else { break };
            let keyword = match &t.tok {
                Tok::Ident(s) => s.clone(),
                other => {
                    return Err(LangError::at(
                        t,
                        format!("expected a block keyword, found {other}"),
                    ))
                }
            };
            let t = self.next()?.expect("peeked");
            match keyword.as_str() {
                "target" => {
                    self.expect_keyword("namespace")?;
                    debug_assert!(self.peeked.is_none());
                    ast.target_namespace = Some(self.lexer.take_rest_of_line());
                }
                "default" => {
                    self.expect_keyword("namespace")?;
                    debug_assert!(self.peeked.is_none());
                    ast.namespaces
                        .push((String::new(), self.lexer.take_rest_of_line()));
                }
                "namespace" => {
                    let (prefix, _) = self.expect_ident()?;
                    self.expect_tok(&Tok::Eq)?;
                    debug_assert!(self.peeked.is_none());
                    ast.namespaces
                        .push((prefix, self.lexer.take_rest_of_line()));
                }
                "global" => {
                    self.expect_tok(&Tok::LBrace)?;
                    loop {
                        let (name, _) = self.expect_ident()?;
                        ast.globals.push(name);
                        match self.next()? {
                            Some(Spanned {
                                tok: Tok::Comma, ..
                            }) => continue,
                            Some(Spanned {
                                tok: Tok::RBrace, ..
                            }) => break,
                            Some(t) => {
                                return Err(LangError::at(
                                    &t,
                                    "expected ',' or '}' in global block",
                                ))
                            }
                            None => return Err(LangError::new(0, 0, "unterminated global block")),
                        }
                    }
                }
                "groups" => self.parse_groups_block(&mut ast)?,
                "grammar" => self.parse_grammar_block(&mut ast)?,
                "constraints" => self.parse_constraints_block(&mut ast)?,
                other => {
                    return Err(LangError::at(
                        &t,
                        format!("unknown top-level block {other:?}"),
                    ))
                }
            }
        }
        Ok(ast)
    }

    fn parse_groups_block(&mut self, ast: &mut SchemaAst) -> Result<(), LangError> {
        self.expect_tok(&Tok::LBrace)?;
        loop {
            match self.next()? {
                Some(Spanned {
                    tok: Tok::RBrace, ..
                }) => return Ok(()),
                Some(t) => match &t.tok {
                    Tok::Ident(kw) if kw == "group" => {
                        let (name, _) = self.expect_ident()?;
                        self.expect_tok(&Tok::Eq)?;
                        let body = self.parse_body_braced()?;
                        let ChildPattern {
                            open,
                            mixed,
                            attributes,
                            attribute_group_refs,
                            particle,
                        } = body;
                        if open
                            || mixed
                            || !attributes.is_empty()
                            || !attribute_group_refs.is_empty()
                        {
                            return Err(LangError::at(
                                &t,
                                "element groups may not contain attributes, 'mixed', or 'any'",
                            ));
                        }
                        let particle = particle
                            .ok_or_else(|| LangError::at(&t, "element group must not be empty"))?;
                        ast.groups.push((name, particle));
                    }
                    Tok::Ident(kw) if kw == "attribute-group" => {
                        let (name, _) = self.expect_ident()?;
                        self.expect_tok(&Tok::Eq)?;
                        let body = self.parse_body_braced()?;
                        if body.mixed || body.particle.is_some() {
                            return Err(LangError::at(
                                &t,
                                "attribute groups may only contain attribute items",
                            ));
                        }
                        let mut items = body.attributes;
                        if !body.attribute_group_refs.is_empty() {
                            return Err(LangError::at(
                                &t,
                                "attribute groups may not reference other attribute groups",
                            ));
                        }
                        items.sort_by(|a, b| a.name.cmp(&b.name));
                        ast.attribute_groups.push((name, items));
                    }
                    other => {
                        return Err(LangError::at(
                            &t,
                            format!("expected group or attribute-group, found {other}"),
                        ))
                    }
                },
                None => return Err(LangError::new(0, 0, "unterminated groups block")),
            }
        }
    }

    fn parse_grammar_block(&mut self, ast: &mut SchemaAst) -> Result<(), LangError> {
        self.expect_tok(&Tok::LBrace)?;
        loop {
            if matches!(
                self.peek()?,
                Some(Spanned {
                    tok: Tok::RBrace,
                    ..
                })
            ) {
                self.next()?;
                return Ok(());
            }
            if self.peek()?.is_none() {
                return Err(LangError::new(0, 0, "unterminated grammar block"));
            }
            // LHS: tokens until '='.
            let mut lhs = Vec::new();
            loop {
                match self.next()? {
                    Some(Spanned { tok: Tok::Eq, .. }) => break,
                    Some(t) => lhs.push(t),
                    None => return Err(LangError::new(0, 0, "rule without '='")),
                }
            }
            let span = lhs_span(&lhs);
            let pattern = PatternParser::new(&lhs, self.src).parse_full()?;
            let body = self.parse_rule_body()?;
            ast.rules.push(RuleAst {
                pattern,
                body,
                span,
            });
        }
    }

    fn parse_rule_body(&mut self) -> Result<RuleBody, LangError> {
        // [mixed] { … }  or  { type xs:… }
        let mut mixed = false;
        if matches!(self.peek()?, Some(Spanned { tok: Tok::Ident(s), .. }) if s == "mixed") {
            self.next()?;
            mixed = true;
        }
        // Peek into the braces for a `type` body.
        let open = self.expect_tok(&Tok::LBrace)?;
        if matches!(self.peek()?, Some(Spanned { tok: Tok::Ident(s), .. }) if s == "type") {
            self.next()?;
            let (qname, _) = self.expect_ident()?;
            // optional facet block: { min "0", enum "a", … }
            let facets = if matches!(
                self.peek()?,
                Some(Spanned {
                    tok: Tok::LBrace,
                    ..
                })
            ) {
                self.next()?;
                self.parse_facets()?
            } else {
                Facets::default()
            };
            self.expect_tok(&Tok::RBrace)?;
            if mixed {
                return Err(LangError::at(
                    &open,
                    "'mixed' cannot combine with a type body",
                ));
            }
            let st = SimpleType::from_qname(&qname);
            facets
                .check(st)
                .map_err(|e| LangError::at(&open, format!("invalid facets for {qname}: {e}")))?;
            return Ok(RuleBody::Simple(st, facets));
        }
        let mut body = self.parse_body_items()?;
        body.mixed = mixed;
        Ok(RuleBody::Complex(body))
    }

    /// Parses facet items up to the closing `}` (already inside the facet
    /// braces): `min "0", max "100", minLength "1", maxLength "9",
    /// enum "a"` (enum repeatable).
    fn parse_facets(&mut self) -> Result<Facets, LangError> {
        let mut facets = Facets::default();
        loop {
            let (kind, t) = self.expect_ident()?;
            let value = match self.next()? {
                Some(Spanned {
                    tok: Tok::Str(v), ..
                }) => v,
                Some(t) => return Err(LangError::at(&t, "facet values must be quoted strings")),
                None => return Err(LangError::new(0, 0, "unterminated facet list")),
            };
            match kind.as_str() {
                "min" => facets.min_inclusive = Some(value),
                "max" => facets.max_inclusive = Some(value),
                "minLength" => {
                    facets.min_length = Some(
                        value
                            .parse()
                            .map_err(|_| LangError::at(&t, format!("bad minLength {value:?}")))?,
                    )
                }
                "maxLength" => {
                    facets.max_length = Some(
                        value
                            .parse()
                            .map_err(|_| LangError::at(&t, format!("bad maxLength {value:?}")))?,
                    )
                }
                "enum" => facets.enumeration.push(value),
                other => return Err(LangError::at(&t, format!("unknown facet {other:?}"))),
            }
            match self.next()? {
                Some(Spanned {
                    tok: Tok::Comma, ..
                }) => continue,
                Some(Spanned {
                    tok: Tok::RBrace, ..
                }) => return Ok(facets),
                Some(t) => return Err(LangError::at(&t, "expected ',' or '}' in facets")),
                None => return Err(LangError::new(0, 0, "unterminated facet list")),
            }
        }
    }

    /// Parses `{ items }` (the brace was not consumed yet).
    fn parse_body_braced(&mut self) -> Result<ChildPattern, LangError> {
        self.expect_tok(&Tok::LBrace)?;
        self.parse_body_items()
    }

    /// Parses body items up to the closing `}` (already inside braces).
    fn parse_body_items(&mut self) -> Result<ChildPattern, LangError> {
        let mut toks = Vec::new();
        loop {
            match self.next()? {
                Some(Spanned {
                    tok: Tok::RBrace, ..
                }) => break,
                Some(t) => toks.push(t),
                None => return Err(LangError::new(0, 0, "unterminated rule body")),
            }
        }
        BodyParser {
            toks: &toks,
            pos: 0,
            nesting: Nesting::default(),
        }
        .parse()
    }

    fn parse_constraints_block(&mut self, ast: &mut SchemaAst) -> Result<(), LangError> {
        self.expect_tok(&Tok::LBrace)?;
        loop {
            match self.next()? {
                Some(Spanned {
                    tok: Tok::RBrace, ..
                }) => return Ok(()),
                Some(t) => {
                    let kw = match &t.tok {
                        Tok::Ident(s) => s.clone(),
                        other => {
                            return Err(LangError::at(
                                &t,
                                format!("expected a constraint kind, found {other}"),
                            ))
                        }
                    };
                    let constraint = match kw.as_str() {
                        "unique" => {
                            let selector = self.parse_selector()?;
                            let fields = self.parse_fields()?;
                            Constraint {
                                name: None,
                                kind: ConstraintKind::Unique,
                                selector,
                                fields,
                            }
                        }
                        "key" => {
                            let (name, _) = self.expect_ident()?;
                            self.expect_tok(&Tok::Eq)?;
                            let selector = self.parse_selector()?;
                            let fields = self.parse_fields()?;
                            Constraint {
                                name: Some(name),
                                kind: ConstraintKind::Key,
                                selector,
                                fields,
                            }
                        }
                        "keyref" => {
                            let selector = self.parse_selector()?;
                            let fields = self.parse_fields()?;
                            self.expect_keyword("references")?;
                            let (refer, _) = self.expect_ident()?;
                            Constraint {
                                name: None,
                                kind: ConstraintKind::KeyRef { refer },
                                selector,
                                fields,
                            }
                        }
                        other => {
                            return Err(LangError::at(
                                &t,
                                format!("unknown constraint kind {other:?}"),
                            ))
                        }
                    };
                    ast.constraints.push(constraint);
                }
                None => return Err(LangError::new(0, 0, "unterminated constraints block")),
            }
        }
    }

    /// Parses a selector pattern up to (not including) the `{`.
    fn parse_selector(&mut self) -> Result<PathExpr, LangError> {
        let mut toks = Vec::new();
        loop {
            match self.peek()? {
                Some(Spanned {
                    tok: Tok::LBrace, ..
                }) => break,
                Some(_) => toks.push(self.next()?.expect("peeked")),
                None => return Err(LangError::new(0, 0, "constraint selector without fields")),
            }
        }
        let pattern = PatternParser::new(&toks, self.src).parse_full()?;
        if !pattern.attributes.is_empty() {
            return Err(LangError::new(
                0,
                0,
                "constraint selectors must not contain attribute names",
            ));
        }
        Ok(pattern.path)
    }

    /// Parses `{ field (, field)* }`.
    fn parse_fields(&mut self) -> Result<Vec<Field>, LangError> {
        self.expect_tok(&Tok::LBrace)?;
        let mut fields = Vec::new();
        loop {
            let field = match self.next()? {
                Some(Spanned { tok: Tok::At, .. }) => {
                    let (name, _) = self.expect_ident()?;
                    Field::Attribute(name)
                }
                Some(Spanned {
                    tok: Tok::Ident(name),
                    ..
                }) => Field::ChildText(name),
                Some(t) => return Err(LangError::at(&t, "expected a field")),
                None => return Err(LangError::new(0, 0, "unterminated field list")),
            };
            fields.push(field);
            match self.next()? {
                Some(Spanned {
                    tok: Tok::Comma, ..
                }) => continue,
                Some(Spanned {
                    tok: Tok::RBrace, ..
                }) => return Ok(fields),
                Some(t) => return Err(LangError::at(&t, "expected ',' or '}' in fields")),
                None => return Err(LangError::new(0, 0, "unterminated field list")),
            }
        }
    }
}

// -------------------------------------------------------------------
// Ancestor patterns.
// -------------------------------------------------------------------

/// Intermediate result: a path, attribute names, or a path followed by
/// attribute names.
enum Pat {
    Path(PathExpr),
    Attrs(Vec<String>),
    PathAttrs(PathExpr, Vec<String>),
}

struct PatternParser<'a> {
    toks: &'a [Spanned],
    pos: usize,
    src: &'a str,
    nesting: Nesting,
}

impl<'a> PatternParser<'a> {
    fn new(toks: &'a [Spanned], src: &'a str) -> Self {
        PatternParser {
            toks,
            pos: 0,
            src,
            nesting: Nesting::default(),
        }
    }

    /// The token consumed last.
    fn prev(&self) -> &'a Spanned {
        &self.toks[self.pos - 1]
    }

    fn err_here(&self, msg: impl Into<String>) -> LangError {
        match self.toks.get(self.pos).or_else(|| self.toks.last()) {
            Some(t) => LangError::at(t, msg),
            None => LangError::new(0, 0, msg),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn source_span(&self) -> String {
        match (self.toks.first(), self.toks.last()) {
            (Some(a), Some(b)) => {
                let end = b.offset + b.tok.to_string().len();
                self.src.get(a.offset..end).unwrap_or("").trim().to_owned()
            }
            _ => String::new(),
        }
    }

    fn parse_full(mut self) -> Result<AncestorPattern, LangError> {
        if self.toks.is_empty() {
            return Err(LangError::new(0, 0, "empty ancestor pattern"));
        }
        check_groups(self.toks)?;
        let source = self.source_span();
        // Implicit leading `//` when the first meaningful token (looking
        // through opening parentheses) is a name or `@`.
        let implicit = {
            let mut i = 0;
            while matches!(self.toks.get(i).map(|t| &t.tok), Some(Tok::LParen)) {
                i += 1;
            }
            matches!(
                self.toks.get(i).map(|t| &t.tok),
                Some(Tok::Ident(_)) | Some(Tok::At)
            )
        };
        let pat = self.parse_alt()?;
        if self.pos < self.toks.len() {
            return Err(self.err_here("trailing tokens in ancestor pattern"));
        }
        let (path, attributes) = match pat {
            Pat::Path(p) => (p, Vec::new()),
            Pat::Attrs(a) => (PathExpr::Empty, a),
            Pat::PathAttrs(p, a) => (p, a),
        };
        let path = if implicit {
            match path {
                PathExpr::Empty => PathExpr::AnyChain,
                p => PathExpr::Seq(vec![PathExpr::AnyChain, p]),
            }
        } else if matches!(path, PathExpr::Empty) && !attributes.is_empty() {
            return Err(LangError::new(
                0,
                0,
                "attribute pattern must have an element path",
            ));
        } else {
            path
        };
        Ok(AncestorPattern {
            path,
            attributes,
            source,
        })
    }

    fn parse_alt(&mut self) -> Result<Pat, LangError> {
        let mut branches = vec![self.parse_cat()?];
        let mut deepest = self.nesting.last;
        while matches!(self.peek(), Some(Tok::Pipe)) {
            self.bump();
            branches.push(self.parse_cat()?);
            deepest = deepest.max(self.nesting.last);
        }
        self.nesting.join(deepest, branches.len(), self.prev())?;
        if branches.len() == 1 {
            return Ok(branches.pop().expect("len checked"));
        }
        if branches.iter().all(|b| matches!(b, Pat::Attrs(_))) {
            let mut names = Vec::new();
            for b in branches {
                if let Pat::Attrs(a) = b {
                    names.extend(a);
                }
            }
            return Ok(Pat::Attrs(names));
        }
        let paths: Option<Vec<PathExpr>> = branches
            .into_iter()
            .map(|b| match b {
                Pat::Path(p) => Some(p),
                _ => None,
            })
            .collect();
        match paths {
            Some(ps) => Ok(Pat::Path(PathExpr::Alt(ps))),
            None => Err(self.err_here("alternation may not mix element paths and attribute names")),
        }
    }

    fn parse_cat(&mut self) -> Result<Pat, LangError> {
        let mut parts: Vec<PathExpr> = Vec::new();
        let mut attrs: Option<Vec<String>> = None;
        let mut deepest = 0;
        loop {
            // A step may begin with an explicit separator.
            let gap = match self.peek() {
                Some(Tok::Slash) => {
                    self.bump();
                    false
                }
                Some(Tok::DSlash) => {
                    self.bump();
                    true
                }
                Some(Tok::Ident(_) | Tok::At | Tok::LParen) => false,
                _ => break,
            };
            if attrs.is_some() {
                return Err(
                    self.err_here("attribute names may only occur at the end of ancestor patterns")
                );
            }
            if gap {
                parts.push(PathExpr::AnyChain);
            }
            let step = self.parse_postfix()?;
            deepest = deepest.max(self.nesting.last);
            match step {
                Pat::Path(p) => parts.push(p),
                Pat::Attrs(a) => attrs = Some(a),
                Pat::PathAttrs(p, a) => {
                    parts.push(p);
                    attrs = Some(a);
                }
            }
        }
        if parts.is_empty() && attrs.is_none() {
            return Err(self.err_here("expected an ancestor pattern step"));
        }
        self.nesting.join(deepest, parts.len(), self.prev())?;
        let path = match parts.len() {
            0 => PathExpr::Empty,
            1 => parts.pop().expect("len checked"),
            _ => PathExpr::Seq(parts),
        };
        Ok(match attrs {
            None => Pat::Path(path),
            Some(a) if matches!(path, PathExpr::Empty) => Pat::Attrs(a),
            Some(a) => Pat::PathAttrs(path, a),
        })
    }

    fn parse_postfix(&mut self) -> Result<Pat, LangError> {
        let mut pat = self.parse_atom()?;
        while let Some(Tok::Star | Tok::Plus | Tok::Question | Tok::Count(_, _)) = self.peek() {
            let op = self.bump().expect("peeked").clone();
            self.nesting.wrap(self.prev())?;
            pat = match pat {
                Pat::Path(p) => Pat::Path(match op {
                    Tok::Star => PathExpr::Star(Box::new(p)),
                    Tok::Plus => PathExpr::Plus(Box::new(p)),
                    Tok::Question => PathExpr::Opt(Box::new(p)),
                    Tok::Count(lo, hi) => PathExpr::Repeat(Box::new(p), lo, hi),
                    _ => unreachable!("matched above"),
                }),
                _ => {
                    return Err(
                        self.err_here("repetition operators cannot apply to attribute names")
                    )
                }
            };
        }
        Ok(pat)
    }

    fn parse_atom(&mut self) -> Result<Pat, LangError> {
        self.nesting.last = 0;
        match self.bump().cloned() {
            Some(Tok::Ident(name)) => Ok(Pat::Path(PathExpr::Name(name))),
            Some(Tok::At) => match self.bump().cloned() {
                Some(Tok::Ident(name)) => Ok(Pat::Attrs(vec![name])),
                _ => Err(self.err_here("expected an attribute name after '@'")),
            },
            Some(Tok::LParen) => {
                let inner = self.parse_alt()?;
                match self.bump() {
                    Some(Tok::RParen) => {
                        self.nesting.wrap(self.prev())?;
                        Ok(inner)
                    }
                    _ => Err(self.err_here("expected ')'")),
                }
            }
            Some(other) => Err(self.err_here(format!("unexpected {other} in ancestor pattern"))),
            None => Err(self.err_here("unexpected end of ancestor pattern")),
        }
    }
}

// -------------------------------------------------------------------
// Child patterns.
// -------------------------------------------------------------------

enum CItem {
    P(Particle),
    Attr(AttributeItem),
    AGroup(String),
    Any,
}

struct BodyParser<'a> {
    toks: &'a [Spanned],
    pos: usize,
    nesting: Nesting,
}

impl<'a> BodyParser<'a> {
    /// The token consumed last.
    fn prev(&self) -> &'a Spanned {
        &self.toks[self.pos - 1]
    }

    fn err_here(&self, msg: impl Into<String>) -> LangError {
        match self.toks.get(self.pos).or_else(|| self.toks.last()) {
            Some(t) => LangError::at(t, msg),
            None => LangError::new(0, 0, msg),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn bump(&mut self) -> Option<&Tok> {
        let t = self.toks.get(self.pos).map(|t| &t.tok);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    #[allow(clippy::while_let_loop)] // `?`-carrying loop conditions
    fn parse(mut self) -> Result<ChildPattern, LangError> {
        let mut out = ChildPattern::default();
        let mut particles = Vec::new();
        let mut deepest = 0;
        if self.toks.is_empty() {
            return Ok(out); // empty content
        }
        check_groups(self.toks)?;
        loop {
            match self.parse_top_item()? {
                CItem::P(p) => {
                    particles.push(p);
                    deepest = deepest.max(self.nesting.last);
                }
                CItem::Attr(a) => out.attributes.push(a),
                CItem::AGroup(g) => out.attribute_group_refs.push(g),
                CItem::Any => out.open = true,
            }
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                None => break,
                Some(other) => {
                    return Err(self.err_here(format!("expected ',' between items, found {other}")))
                }
            }
        }
        self.nesting.join(deepest, particles.len(), self.prev())?;
        out.particle = match particles.len() {
            0 => None,
            1 => Some(particles.pop().expect("len checked")),
            _ => Some(Particle::Seq(particles)),
        };
        if out.open && out.particle.is_some() {
            return Err(self.err_here("'any' cannot be combined with element content"));
        }
        Ok(out)
    }

    fn parse_top_item(&mut self) -> Result<CItem, LangError> {
        match self.peek() {
            Some(Tok::Ident(kw)) if kw == "attribute" => {
                self.bump();
                let name = self.expect_name()?;
                let optional = if matches!(self.peek(), Some(Tok::Question)) {
                    self.bump();
                    true
                } else {
                    false
                };
                Ok(CItem::Attr(AttributeItem { name, optional }))
            }
            Some(Tok::Ident(kw)) if kw == "attribute-group" => {
                self.bump();
                Ok(CItem::AGroup(self.expect_name()?))
            }
            Some(Tok::Ident(kw)) if kw == "any" => {
                self.bump();
                Ok(CItem::Any)
            }
            _ => Ok(CItem::P(self.parse_alt(false)?)),
        }
    }

    fn expect_name(&mut self) -> Result<String, LangError> {
        match self.bump().cloned() {
            Some(Tok::Ident(name)) => Ok(name),
            _ => Err(self.err_here("expected a name")),
        }
    }

    /// `alt := inter ('|' inter)*`; with `commas`, also
    /// `seq := alt (',' alt)*` around it (inside parentheses).
    fn parse_alt(&mut self, _in_parens: bool) -> Result<Particle, LangError> {
        let mut branches = vec![self.parse_inter()?];
        let mut deepest = self.nesting.last;
        while matches!(self.peek(), Some(Tok::Pipe)) {
            self.bump();
            branches.push(self.parse_inter()?);
            deepest = deepest.max(self.nesting.last);
        }
        self.nesting.join(deepest, branches.len(), self.prev())?;
        Ok(if branches.len() == 1 {
            branches.pop().expect("len checked")
        } else {
            Particle::Alt(branches)
        })
    }

    fn parse_seq_in_parens(&mut self) -> Result<Particle, LangError> {
        let mut items = vec![self.parse_alt(true)?];
        let mut deepest = self.nesting.last;
        while matches!(self.peek(), Some(Tok::Comma)) {
            self.bump();
            items.push(self.parse_alt(true)?);
            deepest = deepest.max(self.nesting.last);
        }
        self.nesting.join(deepest, items.len(), self.prev())?;
        Ok(if items.len() == 1 {
            items.pop().expect("len checked")
        } else {
            Particle::Seq(items)
        })
    }

    fn parse_inter(&mut self) -> Result<Particle, LangError> {
        let mut items = vec![self.parse_postfix()?];
        let mut deepest = self.nesting.last;
        while matches!(self.peek(), Some(Tok::Amp)) {
            self.bump();
            items.push(self.parse_postfix()?);
            deepest = deepest.max(self.nesting.last);
        }
        self.nesting.join(deepest, items.len(), self.prev())?;
        Ok(if items.len() == 1 {
            items.pop().expect("len checked")
        } else {
            Particle::Interleave(items)
        })
    }

    fn parse_postfix(&mut self) -> Result<Particle, LangError> {
        let mut p = self.parse_atom()?;
        while let Some(Tok::Star | Tok::Plus | Tok::Question | Tok::Count(_, _)) = self.peek() {
            let op = self.bump().expect("peeked").clone();
            self.nesting.wrap(self.prev())?;
            let inner = Box::new(p);
            p = match op {
                Tok::Star => Particle::Star(inner),
                Tok::Plus => Particle::Plus(inner),
                Tok::Question => Particle::Opt(inner),
                Tok::Count(lo, hi) => Particle::Repeat(inner, lo, hi),
                _ => unreachable!("matched above"),
            };
        }
        Ok(p)
    }

    fn parse_atom(&mut self) -> Result<Particle, LangError> {
        self.nesting.last = 0;
        match self.bump().cloned() {
            Some(Tok::Ident(kw)) if kw == "element" => Ok(Particle::Element(self.expect_name()?)),
            Some(Tok::Ident(kw)) if kw == "group" => Ok(Particle::GroupRef(self.expect_name()?)),
            Some(Tok::Ident(kw)) if kw == "attribute" || kw == "attribute-group" => {
                Err(self
                    .err_here("attributes may only appear as top-level comma items of a rule body"))
            }
            Some(Tok::LParen) => {
                let inner = self.parse_seq_in_parens()?;
                match self.bump() {
                    Some(Tok::RParen) => {
                        self.nesting.wrap(self.prev())?;
                        Ok(inner)
                    }
                    _ => Err(self.err_here("expected ')'")),
                }
            }
            Some(other) => {
                Err(self.err_here(format!("expected element, group, or '(' — found {other}")))
            }
            None => Err(self.err_here("unexpected end of rule body")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure5_schema() {
        let src = r#"
            target namespace http://mydomain.org/namespace
            namespace xs = http://www.w3.org/2001/XMLSchema
            global { document }
            groups {
              attribute-group fontattr = { attribute name?, attribute size? }
              group markup = { ( element bold | element italic | element font
                               | element style | element color )* }
            }
            grammar {
              document = { element template, element userstyles, element content }
              content = { (element section)* }
              template = { (element section)? }
              userstyles = { (element style)* }
              content//section = mixed { attribute title, (element section | group markup)* }
              content//style = mixed { attribute name, group markup }
              content//font = mixed { attribute-group fontattr, group markup }
              content//color = mixed { attribute color, group markup }
              (bold|italic) = mixed { group markup }
              template//section = { element titlefont?, element style?, element section? }
              template//style = { element font? & element color? }
              userstyles/style = { attribute name, element font? & element color? }
              (userstyles|template)//color = { attribute color }
              (userstyles|template)//(font|titlefont) = { attribute-group fontattr }
              (@name | @color | @title) = { type xs:string }
              @size = { type xs:integer }
            }
        "#;
        let ast = parse_schema(src).unwrap();
        assert_eq!(
            ast.target_namespace.as_deref(),
            Some("http://mydomain.org/namespace")
        );
        assert_eq!(ast.namespaces.len(), 1);
        assert_eq!(ast.globals, vec!["document"]);
        assert_eq!(ast.groups.len(), 1);
        assert_eq!(ast.attribute_groups.len(), 1);
        assert_eq!(ast.rules.len(), 16);

        // content//section: path = // content // section, attrs none
        let r = &ast.rules[4];
        assert!(r.pattern.attributes.is_empty());
        match &r.body {
            RuleBody::Complex(cp) => {
                assert!(cp.mixed);
                assert_eq!(cp.attributes.len(), 1);
                assert_eq!(cp.attributes[0].name, "title");
                assert!(!cp.attributes[0].optional);
                assert!(matches!(cp.particle, Some(Particle::Star(_))));
            }
            other => panic!("{other:?}"),
        }

        // (@name | @color | @title): attribute rule
        let r = &ast.rules[14];
        assert_eq!(r.pattern.attributes, vec!["name", "color", "title"]);
        assert_eq!(r.pattern.path, PathExpr::AnyChain);
        assert_eq!(
            r.body,
            RuleBody::Simple(SimpleType::String, Facets::default())
        );

        // @size: integer
        let r = &ast.rules[15];
        assert_eq!(r.pattern.attributes, vec!["size"]);
        assert_eq!(
            r.body,
            RuleBody::Simple(SimpleType::Integer, Facets::default())
        );
    }

    #[test]
    fn implicit_descendant_prefix() {
        let p = parse_ancestor_pattern("section").unwrap();
        assert_eq!(
            p.path,
            PathExpr::Seq(vec![PathExpr::AnyChain, PathExpr::Name("section".into())])
        );
        // anchored patterns stay anchored
        let p = parse_ancestor_pattern("/a/b").unwrap();
        assert_eq!(
            p.path,
            PathExpr::Seq(vec![PathExpr::Name("a".into()), PathExpr::Name("b".into())])
        );
        // `//a` is explicit descendant
        let p = parse_ancestor_pattern("//a").unwrap();
        assert_eq!(
            p.path,
            PathExpr::Seq(vec![PathExpr::AnyChain, PathExpr::Name("a".into())])
        );
    }

    #[test]
    fn section31_example_pattern() {
        // (/a/a)*(@c|@d) — anchored; even-depth a-chains; c/d attributes
        let p = parse_ancestor_pattern("(/a/a)*(@c|@d)").unwrap();
        assert_eq!(p.attributes, vec!["c", "d"]);
        assert_eq!(
            p.path,
            PathExpr::Star(Box::new(PathExpr::Seq(vec![
                PathExpr::Name("a".into()),
                PathExpr::Name("a".into())
            ])))
        );
    }

    #[test]
    fn attributes_must_be_at_end() {
        // /a/@b/c is explicitly disallowed in the paper
        assert!(parse_ancestor_pattern("/a/@b/c").is_err());
    }

    #[test]
    fn pattern_operators() {
        let p = parse_ancestor_pattern("/a(/b|/c)+/d{2,3}").unwrap();
        match p.path {
            PathExpr::Seq(items) => {
                assert_eq!(items.len(), 3);
                assert!(matches!(items[1], PathExpr::Plus(_)));
                assert!(matches!(items[2], PathExpr::Repeat(_, 2, Some(3))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interleave_and_counting_in_bodies() {
        let src = r#"
            global { r }
            grammar {
              r = { element a{1,3} & element b? }
            }
        "#;
        let ast = parse_schema(src).unwrap();
        match &ast.rules[0].body {
            RuleBody::Complex(cp) => match cp.particle.as_ref().unwrap() {
                Particle::Interleave(items) => {
                    assert!(matches!(items[0], Particle::Repeat(_, 1, Some(3))));
                    assert!(matches!(items[1], Particle::Opt(_)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constraints_block() {
        let src = r#"
            global { doc }
            grammar { doc = { (element style)* } }
            constraints {
              unique //style { @name }
              key styleKey = //userstyles/style { @name, kindfield }
              keyref //content//style { @name } references styleKey
            }
        "#;
        let ast = parse_schema(src).unwrap();
        assert_eq!(ast.constraints.len(), 3);
        assert_eq!(ast.constraints[0].kind, ConstraintKind::Unique);
        assert_eq!(ast.constraints[1].name.as_deref(), Some("styleKey"));
        assert_eq!(ast.constraints[1].fields.len(), 2);
        assert!(matches!(
            &ast.constraints[2].kind,
            ConstraintKind::KeyRef { refer } if refer == "styleKey"
        ));
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_schema("global { }").unwrap_err();
        assert!(e.line >= 1);
        assert!(parse_schema("grammar { a = }").is_err());
        assert!(parse_schema("grammar { a = { element } }").is_err());
        assert!(parse_schema("bogus { }").is_err());
        // attribute under a repetition: rejected
        assert!(parse_schema("grammar { a = { (attribute x)* } }").is_err());
    }

    #[test]
    fn invalid_facet_bounds_are_schema_errors() {
        // Regression: a bound that does not parse as the base type used
        // to become NaN at validation time and silently reject (min) or
        // admit (max) every value; it must be rejected at schema parse.
        let ok = r#"grammar { a = { type xs:integer { min "0", max "10" } } }"#;
        assert!(parse_schema(ok).is_ok());
        let bad = r#"grammar { a = { type xs:integer { max "ten" } } }"#;
        let e = parse_schema(bad).unwrap_err();
        assert!(e.to_string().contains("invalid facets"), "{e}");
        let inverted = r#"grammar { a = { type xs:integer { min "10", max "9" } } }"#;
        let e = parse_schema(inverted).unwrap_err();
        assert!(e.to_string().contains("exceeds"), "{e}");
        // the same bound is fine where it is lexicographically sensible
        let string_bound = r#"grammar { a = { type xs:string { max "ten" } } }"#;
        assert!(parse_schema(string_bound).is_ok());
    }

    #[test]
    fn empty_body_is_empty_content() {
        let ast = parse_schema("grammar { a = { } }").unwrap();
        match &ast.rules[0].body {
            RuleBody::Complex(cp) => {
                assert!(cp.particle.is_none());
                assert!(cp.attributes.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }
}
