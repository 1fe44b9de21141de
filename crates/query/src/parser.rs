//! A small Datalog-style concrete syntax for CQs, CCQs and UCQs.
//!
//! Grammar:
//!
//! ```text
//! ucq   := rule (";" rule)*
//! rule  := head ":-" body
//! head  := ident "(" vars? ")"
//! body  := literal ("," literal)*
//! literal := atom | inequality | ε
//! atom  := ident "(" vars? ")"
//! inequality := ident "!=" ident
//! vars  := ident ("," ident)*
//! ident := [A-Za-z0-9_']+
//! ```
//!
//! Examples:
//!
//! ```text
//! Q(x) :- R(x, y), S(y)
//! Q() :- R(u, v), R(u, w)                      (Boolean CQ)
//! Q() :- R(u, v), R(u, v), u != v              (CCQ)
//! Q() :- R(v) ; Q() :- S(v)                    (UCQ with two members)
//! ```
//!
//! The details of the accepted language:
//!
//! * Whitespace — every character [`char::is_whitespace`] accepts, Unicode
//!   included — may stand between any two tokens, but not inside an
//!   identifier, `:-` or `!=`.
//! * A newline separates rules just as `;` does, wherever it stands: a rule
//!   never spans two lines, and `;` inside parentheses still ends a rule.
//!   Rules that are empty or all whitespace are skipped.
//! * Empty literals (`,,`, a leading or trailing comma) are skipped, and
//!   `R()` and `R( )` are atoms of arity 0.
//! * Variables are numbered in the order they first occur in the body,
//!   inequalities included.  Every variable must occur in an atom, and so
//!   must every head variable; a head may repeat a variable.
//!
//! Relations are looked up in (or, if unknown, added to) the supplied
//! [`Schema`] in the order of their first use, inferring arities from first
//! use.  A parse that fails leaves the schema untouched.  The members of a
//! UCQ share one relation table, the one after the whole input.  An input
//! of 2³² bytes or more is refused.
//!
//! ## One pass
//!
//! The parser reads its input once, front to back, one token at a time.
//! Each identifier is a span of the input, hashed as it is lexed with the
//! word step of [`crate::key::hash64`], eight bytes to a word.  Variables
//! (per rule) and relations (per input) are found through small
//! open-addressed tables of those spans, so each occurrence costs expected
//! constant work whatever the size of the query.  Atoms, arguments, heads
//! and variable names go to flat buffers.  Only when the whole input has
//! lexed does the parser register each distinct relation in the schema,
//! once, and build each rule's [`Cq`] from exact-size slices of the
//! buffers.  The tables and buffers belong to a per-thread scratch that
//! every parse takes out of its cell and puts back, so once warmed up a
//! parse allocates only what it returns and what the schema keeps.

use crate::ccq::Ccq;
use crate::cq::{Atom, Cq, QVar};
use crate::key::{step, HASH_SEED};
use crate::schema::{RelId, Schema, SchemaError};
use crate::ucq::Ucq;
use std::cell::Cell;
use std::fmt;

/// An error produced while parsing a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Description of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        message: message.into(),
    })
}

/// Runs a parse against a scratch copy of the schema and commits the copy
/// only on success, so a failed parse leaves `schema` exactly as it was —
/// even when relations were registered before the offending one.
/// `Schema::clone` shares the value domain and the copy-on-write relation
/// table, so the scratch copy is two reference-count bumps and commit is an
/// assignment.
fn transactional<T>(
    schema: &mut Schema,
    parse: impl FnOnce(&mut Schema) -> Result<T, ParseError>,
) -> Result<T, ParseError> {
    let mut scratch = schema.clone();
    let parsed = parse(&mut scratch)?;
    *schema = scratch;
    Ok(parsed)
}

thread_local! {
    /// The scratch every parse on this thread lexes into, boxed so that
    /// taking it out and putting it back moves one pointer.
    static SCRATCH: Cell<Option<Box<Scratch>>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's scratch, taken out of its cell and put back.
fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    let mut scratch = SCRATCH.with(Cell::take).unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH.with(|cell| cell.set(Some(scratch)));
    out
}

/// Parses a single CQ (no inequalities allowed).
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_cq(schema: &mut Schema, input: &str) -> Result<Cq, ParseError> {
    with_scratch(|scratch| {
        scratch.lex(input)?;
        scratch.one_rule()?;
        if !scratch.inequalities.is_empty() {
            return err("expected a plain CQ but found inequalities");
        }
        scratch.register(schema, input)?;
        Ok(scratch.member(0, schema, input))
    })
}

/// Parses a single CQ with (optional) inequalities.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ccq(schema: &mut Schema, input: &str) -> Result<Ccq, ParseError> {
    with_scratch(|scratch| {
        scratch.lex(input)?;
        scratch.one_rule()?;
        scratch.register(schema, input)?;
        let cq = scratch.member(0, schema, input);
        Ok(Ccq::new(cq, scratch.inequalities.iter().copied()))
    })
}

/// Parses a UCQ: one or more rules separated by `;` (or newlines).  Every
/// rule must have the same number of head variables.  The members share
/// one schema: the relation table as it stands after the last rule.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ucq(schema: &mut Schema, input: &str) -> Result<Ucq, ParseError> {
    with_scratch(|scratch| {
        scratch.lex(input)?;
        if !scratch.inequalities.is_empty() {
            return err("UCQ members may not contain inequalities");
        }
        let rules = scratch.rules.len();
        let arity = |rule| scratch.head_arity(rule);
        if let Some(other) = (1..rules).find(|&rule| arity(rule) != arity(0)) {
            return err(format!(
                "UCQ members disagree on head arity: {} and {}",
                arity(0),
                arity(other)
            ));
        }
        scratch.register(schema, input)?;
        let schema = &*schema;
        Ok(Ucq::new(
            (0..rules).map(|rule| scratch.member(rule, schema, input)),
        ))
    })
}

/// An identifier of the input: its bytes `start..end` and their hash.
#[derive(Clone, Copy, Default)]
struct Ident {
    start: usize,
    end: usize,
    hash: u64,
}

/// Where a rule's items end in the scratch's flat buffers; they begin
/// where the previous rule's end.
#[derive(Clone, Copy, Default)]
struct RuleEnd {
    free: usize,
    atoms: usize,
    args: usize,
    names: usize,
}

/// The buffers of one parse, reused by every parse on a thread.
#[derive(Default)]
struct Scratch {
    /// The relations of the input, numbered in the order of first use.
    relations: Idents,
    /// The arity of each relation, set by its first use.
    arities: Vec<usize>,
    /// The schema's id for each relation, once registered.
    rel_ids: Vec<RelId>,
    /// The variables of the rule being lexed, in numbering order.
    vars: Idents,
    /// Whether each variable of the rule being lexed occurs in an atom.
    in_atom: Vec<bool>,
    /// The head arguments of the rule being lexed.
    head: Vec<Ident>,
    /// The end of each rule lexed so far.
    rules: Vec<RuleEnd>,
    /// Every rule's head variables, rule after rule.
    free: Vec<QVar>,
    /// Every atom: its relation's number and the end of its arguments in
    /// `args`.
    atoms: Vec<(usize, usize)>,
    /// Every atom's arguments, atom after atom.
    args: Vec<QVar>,
    /// Every rule's variable names, in numbering order, rule after rule.
    names: Vec<Ident>,
    /// Every rule's inequalities.
    inequalities: Vec<(QVar, QVar)>,
}

impl Scratch {
    /// Lexes every rule of `input` into the buffers.
    fn lex(&mut self, input: &str) -> Result<(), ParseError> {
        if u32::try_from(input.len()).is_err() {
            return err("an input must be shorter than 2³² bytes");
        }
        self.relations.clear();
        self.arities.clear();
        self.rules.clear();
        self.free.clear();
        self.atoms.clear();
        self.args.clear();
        self.names.clear();
        self.inequalities.clear();
        let mut lexer = Lexer::new(input);
        loop {
            match lexer.next() {
                Token::End if lexer.pos == input.len() => return Ok(()),
                Token::End => lexer.pos += 1, // past the `;` or newline
                Token::Ident => self.rule(&mut lexer)?,
                _ => return Err(lexer.unexpected("a rule")),
            }
        }
    }

    /// Lexes one rule `head :- body` after the head's name, which is not
    /// kept, up to the `;`, newline or end of the input that ends it.
    fn rule(&mut self, lexer: &mut Lexer<'_>) -> Result<(), ParseError> {
        let input = lexer.input;
        self.vars.clear();
        self.in_atom.clear();
        self.head.clear();
        lexer.require(Token::Open, "`(`")?;
        arguments(lexer, |ident| self.head.push(ident))?;
        lexer.require(Token::Turnstile, "`:-`")?;
        loop {
            match lexer.next() {
                Token::End => break,
                Token::Comma => {} // an empty literal
                Token::Ident => {
                    let name = lexer.last;
                    match lexer.next() {
                        Token::Open => self.atom(lexer, name)?,
                        Token::NotEqual => self.inequality(lexer, name)?,
                        _ => return Err(lexer.unexpected("`(` or `!=`")),
                    }
                    match lexer.next() {
                        Token::End => break,
                        Token::Comma => {}
                        _ => return Err(lexer.unexpected("`,` or the end of the rule")),
                    }
                }
                _ => return Err(lexer.unexpected("a literal")),
            }
        }

        let start = self.rules.last().copied().unwrap_or_default();
        if self.atoms.len() == start.atoms {
            return err("a query needs at least one atom");
        }
        // A variable named only in an inequality occurs in no atom: refuse it
        // here, where `Cq::new` would panic on the unsafe query.
        if let Some(unbound) = self.in_atom.iter().position(|&seen| !seen) {
            let name = spelling(input, self.vars.entries[unbound].ident);
            return err(format!("variable `{name}` occurs in no atom"));
        }
        for &ident in &self.head {
            let Some(index) = self.vars.find(input, ident) else {
                let name = spelling(input, ident);
                return err(format!("head variable `{name}` does not occur in the body"));
            };
            self.free.push(qvar(index));
        }
        self.names
            .extend(self.vars.entries.iter().map(|entry| entry.ident));
        self.rules.push(RuleEnd {
            free: self.free.len(),
            atoms: self.atoms.len(),
            args: self.args.len(),
            names: self.names.len(),
        });
        Ok(())
    }

    /// Lexes the arguments of the atom named `name`, whose `(` is lexed.
    fn atom(&mut self, lexer: &mut Lexer<'_>, name: Ident) -> Result<(), ParseError> {
        let input = lexer.input;
        let from = self.args.len();
        arguments(lexer, |ident| {
            let v = self.var(input, ident);
            self.in_atom[v.0 as usize] = true;
            self.args.push(v);
        })?;
        let arity = self.args.len() - from;
        let (relation, new) = self.relations.intern(input, name);
        if new {
            self.arities.push(arity);
        } else if self.arities[relation] != arity {
            return Err(arity_clash(
                spelling(input, name),
                self.arities[relation],
                arity,
            ));
        }
        self.atoms.push((relation, self.args.len()));
        Ok(())
    }

    /// Lexes the right side of the inequality whose left side is `lhs`.
    fn inequality(&mut self, lexer: &mut Lexer<'_>, lhs: Ident) -> Result<(), ParseError> {
        let rhs = lexer.ident()?;
        let (a, b) = (self.var(lexer.input, lhs), self.var(lexer.input, rhs));
        if a == b {
            let name = spelling(lexer.input, lhs);
            return err(format!(
                "inequality `{name} != {name}` relates a variable to itself"
            ));
        }
        self.inequalities.push((a, b));
        Ok(())
    }

    /// The variable `ident` names in the rule being lexed, numbered on first
    /// use.
    fn var(&mut self, input: &str, ident: Ident) -> QVar {
        let (index, new) = self.vars.intern(input, ident);
        if new {
            self.in_atom.push(false);
        }
        qvar(index)
    }

    /// Fails unless the input held exactly one rule.
    fn one_rule(&self) -> Result<(), ParseError> {
        match self.rules.len() {
            1 => Ok(()),
            found => err(format!("expected exactly one rule, found {found}")),
        }
    }

    /// Where rule `rule`'s items begin and end in the buffers.
    fn bounds(&self, rule: usize) -> (RuleEnd, RuleEnd) {
        let start = rule
            .checked_sub(1)
            .map_or(RuleEnd::default(), |previous| self.rules[previous]);
        (start, self.rules[rule])
    }

    /// The number of head variables of rule `rule`.
    fn head_arity(&self, rule: usize) -> usize {
        let (start, end) = self.bounds(rule);
        end.free - start.free
    }

    /// Registers the input's relations in `schema`, each once and in the
    /// order of first use.  On an arity clash with a relation the schema
    /// already holds, the schema stays as it was.
    fn register(&mut self, schema: &mut Schema, input: &str) -> Result<(), ParseError> {
        self.rel_ids.clear();
        transactional(schema, |schema| {
            for (entry, &arity) in self.relations.entries.iter().zip(&self.arities) {
                let id = schema
                    .try_add_relation(spelling(input, entry.ident), arity)
                    .map_err(
                        |SchemaError::ArityConflict {
                             name,
                             existing,
                             requested,
                         }| arity_clash(&name, existing, requested),
                    )?;
                self.rel_ids.push(id);
            }
            Ok(())
        })
    }

    /// Builds rule `rule` as a CQ over `schema`, which holds its relations.
    fn member(&self, rule: usize, schema: &Schema, input: &str) -> Cq {
        let (start, end) = self.bounds(rule);
        let mut from = start.args;
        let atoms = self.atoms[start.atoms..end.atoms]
            .iter()
            .map(|&(relation, to)| {
                let args = self.args[from..to].to_vec();
                from = to;
                Atom::new(self.rel_ids[relation], args)
            })
            .collect();
        let names = self.names[start.names..end.names]
            .iter()
            .map(|&ident| spelling(input, ident).to_string())
            .collect();
        Cq::new(
            schema.clone(),
            self.free[start.free..end.free].to_vec(),
            atoms,
            names,
        )
    }
}

/// The text of an identifier.
fn spelling(input: &str, ident: Ident) -> &str {
    &input[ident.start..ident.end]
}

/// The variable numbered `index`.  The cast is lossless: [`Scratch::lex`]
/// refuses inputs of 2³² bytes or more, and each variable takes a byte.
fn qvar(index: usize) -> QVar {
    QVar(index as u32)
}

/// The error for a relation used with two arities.  Inside a query body the
/// conflicting arity is a *use*, not a re-declaration.
fn arity_clash(name: &str, existing: usize, requested: usize) -> ParseError {
    ParseError {
        message: format!(
            "relation {name} used with arity {requested} but declared with {existing}"
        ),
    }
}

/// Lexes identifiers separated by `,` (perhaps none) and `)`, passing each
/// identifier to `each`.
fn arguments(lexer: &mut Lexer<'_>, mut each: impl FnMut(Ident)) -> Result<(), ParseError> {
    match lexer.next() {
        Token::Close => return Ok(()),
        Token::Ident => each(lexer.last),
        _ => return Err(lexer.unexpected("an identifier or `)`")),
    }
    loop {
        match lexer.next() {
            Token::Comma => each(lexer.ident()?),
            Token::Close => return Ok(()),
            _ => return Err(lexer.unexpected("`,` or `)`")),
        }
    }
}

/// A token of the syntax.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Token {
    /// An identifier, left in [`Lexer::last`].
    Ident,
    Open,
    Close,
    Comma,
    /// `:-`
    Turnstile,
    /// `!=`
    NotEqual,
    /// The end of a rule: a `;`, a newline or the end of the input.
    End,
    /// A character no token begins with.
    Stray,
}

/// Whether each byte may occur in an identifier.
const IDENT: [bool; 256] = {
    let mut table = [false; 256];
    let mut byte = 0;
    while byte < 256 {
        let b = byte as u8;
        table[byte] = b.is_ascii_alphanumeric() || b == b'_' || b == b'\'';
        byte += 1;
    }
    table
};

/// A cursor over the input, always on a character boundary.
struct Lexer<'a> {
    input: &'a str,
    pos: usize,
    /// Where the last token began.
    start: usize,
    /// The last identifier lexed.
    last: Ident,
}

impl<'a> Lexer<'a> {
    fn new(input: &'a str) -> Self {
        Lexer {
            input,
            pos: 0,
            start: 0,
            last: Ident::default(),
        }
    }

    /// Skips whitespace and lexes the next token.  The end of a rule is not
    /// consumed: every later call returns it again.
    fn next(&mut self) -> Token {
        self.skip_whitespace();
        self.start = self.pos;
        let bytes = self.input.as_bytes();
        let Some(&byte) = bytes.get(self.pos) else {
            return Token::End;
        };
        let follows = |second| bytes.get(self.pos + 1) == Some(&second);
        let (token, width) = match byte {
            b';' | b'\n' => return Token::End,
            b'(' => (Token::Open, 1),
            b')' => (Token::Close, 1),
            b',' => (Token::Comma, 1),
            b':' if follows(b'-') => (Token::Turnstile, 2),
            b'!' if follows(b'=') => (Token::NotEqual, 2),
            _ if IDENT[usize::from(byte)] => {
                self.last = self.lex_ident();
                return Token::Ident;
            }
            _ => return Token::Stray,
        };
        self.pos += width;
        token
    }

    /// Lexes the identifier at the cursor, hashing its bytes eight to a
    /// word with the word step of [`crate::key::hash64`] and no finaliser:
    /// the last operation is a multiply, so the top bits are well mixed.
    fn lex_ident(&mut self) -> Ident {
        let start = self.pos;
        let rest = &self.input.as_bytes()[start..];
        let len = rest
            .iter()
            .position(|&byte| !IDENT[usize::from(byte)])
            .unwrap_or(rest.len());
        self.pos = start + len;
        let mut words = rest[..len].chunks_exact(8);
        let mut hash = HASH_SEED;
        for word in &mut words {
            let word = <[u8; 8]>::try_from(word).map_or(0, u64::from_le_bytes);
            hash = step(hash, word);
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let word = tail
                .iter()
                .rev()
                .fold(0, |word, &b| word << 8 | u64::from(b));
            hash = step(hash, word);
        }
        Ident {
            start,
            end: self.pos,
            hash,
        }
    }

    /// Lexes the next token, which must be `want`, described as `what`.
    fn require(&mut self, want: Token, what: &str) -> Result<(), ParseError> {
        if self.next() == want {
            Ok(())
        } else {
            Err(self.unexpected(what))
        }
    }

    /// Lexes the next token, which must be an identifier.
    fn ident(&mut self) -> Result<Ident, ParseError> {
        match self.next() {
            Token::Ident => Ok(self.last),
            _ => Err(self.unexpected("an identifier")),
        }
    }

    /// Skips whitespace other than the newline, which ends a rule: the
    /// ASCII bytes [`char::is_whitespace`] accepts, and the Unicode
    /// characters it accepts.
    fn skip_whitespace(&mut self) {
        while let Some(&byte) = self.input.as_bytes().get(self.pos) {
            let width = match byte {
                b'\t' | b'\x0b' | b'\x0c' | b'\r' | b' ' => 1,
                0x80.. => self
                    .input
                    .get(self.pos..)
                    .and_then(|rest| rest.chars().next())
                    .filter(|c| c.is_whitespace())
                    .map_or(0, char::len_utf8),
                _ => 0,
            };
            if width == 0 {
                return;
            }
            self.pos += width;
        }
    }

    /// The error for a last token other than `expected`.
    fn unexpected(&self, expected: &str) -> ParseError {
        let found = match self
            .input
            .get(self.start..)
            .and_then(|rest| rest.chars().next())
        {
            None => "the end of the input".to_string(),
            Some('\n') => "a newline".to_string(),
            Some(c) => format!("`{c}`"),
        };
        ParseError {
            message: format!("expected {expected} at byte {}, found {found}", self.start),
        }
    }
}

/// An open-addressed table of the distinct identifiers of one input,
/// numbered in the order of their first occurrence.
#[derive(Default)]
struct Idents {
    /// Per slot, the number of the identifier there plus one, or 0 for a
    /// free slot.  Empty or a power of two long, and at most half full.
    slots: Vec<usize>,
    /// The identifiers, in numbering order.
    entries: Vec<Entry>,
}

/// An identifier in an [`Idents`] table, and its slot.
#[derive(Clone, Copy)]
struct Entry {
    ident: Ident,
    slot: usize,
}

impl Idents {
    /// Forgets every identifier, freeing only the slots they took.
    fn clear(&mut self) {
        for entry in &self.entries {
            self.slots[entry.slot] = 0;
        }
        self.entries.clear();
    }

    /// The number of the identifier `ident` spells, if the table holds it.
    fn find(&self, input: &str, ident: Ident) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(input, ident).ok()
    }

    /// The number of the identifier `ident` spells, and whether this call
    /// added it.
    fn intern(&mut self, input: &str, ident: Ident) -> (usize, bool) {
        if 2 * (self.entries.len() + 1) > self.slots.len() {
            self.grow();
        }
        match self.probe(input, ident) {
            Ok(number) => (number, false),
            Err(slot) => {
                self.entries.push(Entry { ident, slot });
                self.slots[slot] = self.entries.len();
                (self.entries.len() - 1, true)
            }
        }
    }

    /// The number of the identifier `ident` spells, or else the free slot
    /// where it belongs.  The table must have slots.
    fn probe(&self, input: &str, ident: Ident) -> Result<usize, usize> {
        let bytes = input.as_bytes();
        let word = &bytes[ident.start..ident.end];
        let mut slot = self.home(ident.hash);
        loop {
            match self.slots[slot] {
                0 => return Err(slot),
                number => {
                    let held = self.entries[number - 1].ident;
                    if held.hash == ident.hash && &bytes[held.start..held.end] == word {
                        return Ok(number - 1);
                    }
                }
            }
            slot = (slot + 1) & (self.slots.len() - 1);
        }
    }

    /// The first slot to probe for `hash`: its top bits, the best mixed.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Doubles the slots (to at least 16) and places every identifier again.
    fn grow(&mut self) {
        let len = (2 * self.slots.len()).max(16);
        self.slots.clear();
        self.slots.resize(len, 0);
        for number in 0..self.entries.len() {
            let mut slot = self.home(self.entries[number].ident.hash);
            while self.slots[slot] != 0 {
                slot = (slot + 1) & (len - 1);
            }
            self.slots[slot] = number + 1;
            self.entries[number].slot = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_cq() {
        let mut schema = Schema::new();
        let q = parse_cq(&mut schema, "Q(x) :- R(x, y), S(y)").unwrap();
        assert_eq!(q.free_vars().len(), 1);
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.num_vars(), 2);
        assert_eq!(schema.arity(schema.relation("R").unwrap()), 2);
        assert_eq!(schema.arity(schema.relation("S").unwrap()), 1);
        assert_eq!(format!("{}", q), "Q(x) :- R(x, y), S(y)");
    }

    #[test]
    fn parses_boolean_cq_and_reuses_schema() {
        let mut schema = Schema::with_relations([("R", 2)]);
        let q = parse_cq(&mut schema, "Q() :- R(u, v), R(u, w)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn parses_ccq_with_inequalities() {
        let mut schema = Schema::new();
        let q = parse_ccq(&mut schema, "Q() :- R(u, v), R(u, v), u != v").unwrap();
        assert_eq!(q.inequalities().len(), 1);
        assert_eq!(q.cq().num_atoms(), 2);
        assert!(q.is_complete());
    }

    #[test]
    fn parses_ucq_with_semicolons_and_newlines() {
        let mut schema = Schema::new();
        let u = parse_ucq(&mut schema, "Q() :- R(v), R(v) ; Q() :- S(v), S(v)").unwrap();
        assert_eq!(u.len(), 2);
        let u2 = parse_ucq(&mut schema, "Q() :- R(v)\nQ() :- S(v)").unwrap();
        assert_eq!(u2.len(), 2);
        assert!(parse_ucq(&mut schema, "   ").unwrap().is_empty());
    }

    #[test]
    fn ucq_members_share_the_relation_table_of_the_whole_union() {
        let mut schema = Schema::new();
        let u = parse_ucq(&mut schema, "Q() :- R(x, y) ; Q() :- S(x)").unwrap();
        for member in u.disjuncts() {
            assert_eq!(member.schema(), &schema);
            assert_eq!(member.schema().len(), 2);
        }
        assert_eq!(format!("{u}"), "Q() :- R(x, y)  ∪  Q() :- S(x)");
    }

    #[test]
    fn error_cases() {
        let mut schema = Schema::new();
        assert!(parse_cq(&mut schema, "R(x, y)").is_err()); // no ':-'
        assert!(parse_cq(&mut schema, "Q(z) :- R(x, y)").is_err()); // unsafe head
        assert!(parse_cq(&mut schema, "Q() :- ").is_err()); // no atoms
        assert!(parse_cq(&mut schema, "Q() :- R(x, y), x != y").is_err()); // CQ with ineq
        assert!(parse_ccq(&mut schema, "Q() :- R(x), x != x").is_err()); // reflexive
        assert!(parse_cq(&mut schema, "Q() :- R(x y)").is_err()); // bad ident
        assert!(parse_cq(&mut schema, "Q() :- R(x").is_err()); // missing paren
                                                               // arity clash with previous use of R/2
        let mut schema2 = Schema::with_relations([("R", 2)]);
        let arity_err = parse_cq(&mut schema2, "Q() :- R(x)").unwrap_err();
        assert!(arity_err.message.contains("arity"));
        // two rules where one was expected
        assert!(parse_cq(&mut schema, "Q() :- R(x,y) ; Q() :- R(y,x)").is_err());
        let e = parse_cq(&mut schema, "nope").unwrap_err();
        assert!(format!("{}", e).contains("parse error"));
    }

    #[test]
    fn mixed_head_arities_are_a_parse_error() {
        let mut schema = Schema::new();
        let e = parse_ucq(&mut schema, "Q(x) :- R(x, y) ; Q() :- R(x, y)").unwrap_err();
        assert!(e.message.contains("head arity"), "{e}");
        let e = parse_ucq(&mut schema, "Q() :- R(x, y) ; Q(x, y) :- R(x, y)").unwrap_err();
        assert!(e.message.contains("head arity"), "{e}");
        // The failed parse registered nothing.
        assert!(schema.is_empty());
        // Equal head arities still parse.
        let u = parse_ucq(&mut schema, "Q(x) :- R(x, y) ; Q(y) :- R(x, y)").unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn variables_only_in_inequalities_are_a_parse_error() {
        let mut schema = Schema::new();
        let e = parse_ccq(&mut schema, "Q() :- R(x), x != z").unwrap_err();
        assert!(e.message.contains("`z` occurs in no atom"), "{e}");
        assert!(parse_ucq(&mut schema, "Q() :- R(x), z != x").is_err());
        assert!(schema.is_empty());
    }

    #[test]
    fn repeated_variables_and_atoms_are_preserved() {
        let mut schema = Schema::new();
        let q = parse_cq(&mut schema, "Q() :- E(u, u), E(u, u)").unwrap();
        assert_eq!(q.num_atoms(), 2);
        assert_eq!(q.num_vars(), 1);
        assert_eq!(q.atoms()[0], q.atoms()[1]);
    }

    #[test]
    fn example_5_7_queries_parse() {
        let mut schema = Schema::new();
        let q1 = parse_ucq(
            &mut schema,
            "Q() :- R(u, v), R(u, u) ; Q() :- R(u, v), R(v, v)",
        )
        .unwrap();
        let q2 = parse_ucq(
            &mut schema,
            "Q() :- R(u, v), R(w, w) ; Q() :- R(u, u), R(u, u)",
        )
        .unwrap();
        assert_eq!(q1.len(), 2);
        assert_eq!(q2.len(), 2);
        assert_eq!(q2.disjuncts()[1].num_vars(), 1);
    }

    #[test]
    fn failed_parses_leave_the_schema_untouched() {
        let mut schema = Schema::new();
        parse_cq(&mut schema, "Q() :- R(x, y)").unwrap();
        assert_eq!(schema.len(), 1);

        // The first literal uses S before the second literal clashes with
        // R's arity — S must NOT survive the failed parse.
        let r = parse_cq(&mut schema, "Q() :- S(x), R(x)");
        assert!(r.is_err());
        assert_eq!(schema.len(), 1);
        assert!(schema.relation("S").is_none());

        // Same through the UCQ path: the first member parses fine and
        // uses T, the second member is garbage.
        let r = parse_ucq(&mut schema, "Q() :- T(x, y) ; Q() :- ");
        assert!(r.is_err());
        assert!(schema.relation("T").is_none());

        // parse_cq rejecting inequalities must also roll back relations
        // used in the body.
        let r = parse_cq(&mut schema, "Q() :- U(x, y), x != y");
        assert!(r.is_err());
        assert!(schema.relation("U").is_none());

        // A successful parse still commits.
        parse_ucq(&mut schema, "Q() :- S(x, y) ; Q() :- R(y, y)").unwrap();
        assert_eq!(schema.arity(schema.relation("S").unwrap()), 2);
    }

    #[test]
    fn whitespace_empty_literals_and_numbering_corners() {
        let mut schema = Schema::new();
        // Unicode whitespace between tokens, empty literals, `R( )`, and a
        // head repeating a variable.
        let q = parse_cq(
            &mut schema,
            "\u{2003}Q\u{a0}(y ,y)\t:-,R( ) ,, S(y,\u{a0}x'),\u{85}",
        )
        .unwrap();
        assert_eq!(q.free_vars(), &[QVar(0), QVar(0)]);
        assert_eq!(q.var_names(), &["y".to_string(), "x'".to_string()]);
        assert_eq!(format!("{q}"), "Q(y, y) :- R(), S(y, x')");
        // Variables are numbered from the first occurrence, an inequality's
        // included, and relations register in the order of first use.
        let c = parse_ccq(&mut Schema::new(), "Q() :- b != a, T(a), U(b)").unwrap();
        assert_eq!(c.cq().var_names(), &["b".to_string(), "a".to_string()]);
        let names: Vec<&str> = c
            .cq()
            .schema()
            .rel_ids()
            .map(|r| c.cq().schema().name(r))
            .collect();
        assert_eq!(names, ["T", "U"]);
        // `;` and newlines end a rule even inside parentheses, and a
        // zero-width space is no whitespace.
        assert!(parse_cq(&mut schema, "Q() :- R(x;y)").is_err());
        assert!(parse_ucq(&mut schema, "Q() :- R(x,\ny)").is_err());
        assert!(parse_cq(&mut schema, "Q() :-\u{200b}R(x)").is_err());
    }

    #[test]
    fn large_inputs_take_linear_work() {
        // 5,000 leaves, 5,000 chain links, 5,000 distinct relations: every
        // occurrence is one table lookup, so each parses at once.
        let star: Vec<String> = (0..5_000).map(|i| format!("R(c, l{i})")).collect();
        let q = parse_cq(&mut Schema::new(), &format!("Q() :- {}", star.join(", "))).unwrap();
        assert_eq!(q.num_vars(), 5_001);
        let chain: Vec<String> = (0..5_000).map(|i| format!("R(x{i}, x{})", i + 1)).collect();
        let q = parse_cq(&mut Schema::new(), &format!("Q() :- {}", chain.join(", "))).unwrap();
        assert_eq!(q.num_vars(), 5_001);
        let rels: Vec<String> = (0..5_000).map(|i| format!("R{i}(x)")).collect();
        let mut schema = Schema::new();
        let q = parse_cq(&mut schema, &format!("Q() :- {}", rels.join(", "))).unwrap();
        assert_eq!((q.num_vars(), schema.len()), (1, 5_000));
        assert_eq!(schema.name(q.atoms()[4_999].relation), "R4999");
    }
}
