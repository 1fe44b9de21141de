//! A small Datalog-style concrete syntax for CQs, CCQs and UCQs.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! ucq   := rule (";" rule)*
//! rule  := head ":-" body
//! head  := ident "(" vars? ")"
//! body  := literal ("," literal)*
//! literal := atom | inequality
//! atom  := ident "(" vars? ")"
//! inequality := ident "!=" ident
//! vars  := ident ("," ident)*
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
//! Relations are looked up in (or, if unknown, added to) the supplied
//! [`Schema`], inferring arities from first use.
//!
//! The parser makes one forward pass over each rule: literals are found at
//! the commas outside parentheses and identifiers stay borrowed from the
//! input, so a rule allocates its query's own vectors and one name per
//! variable, not one string per occurrence.  A UCQ registers all its
//! relations before it builds its members, so they share one relation
//! table.

use annot_query::ccq::Ccq;
use annot_query::cq::{Atom, Cq, QVar};
use annot_query::schema::{Schema, SchemaError};
use annot_query::ucq::Ucq;
use std::collections::HashMap;
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
/// even when relations were registered before the offending literal.
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

/// Parses a single CQ (no inequalities allowed).
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_cq(schema: &mut Schema, input: &str) -> Result<Cq, ParseError> {
    transactional(schema, |scratch| {
        let rule = single_rule(scratch, input)?;
        if !rule.inequalities.is_empty() {
            return err("expected a plain CQ but found inequalities");
        }
        Ok(rule.into_cq(scratch))
    })
}

/// Parses a single CQ with (optional) inequalities.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ccq(schema: &mut Schema, input: &str) -> Result<Ccq, ParseError> {
    transactional(schema, |scratch| {
        let mut rule = single_rule(scratch, input)?;
        let inequalities = std::mem::take(&mut rule.inequalities);
        Ok(Ccq::new(rule.into_cq(scratch), inequalities))
    })
}

/// Parses a UCQ: one or more rules separated by `;` (or newlines).  Every
/// rule must have the same number of head variables.  The members share
/// one schema: the relation table as it stands after the last rule.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ucq(schema: &mut Schema, input: &str) -> Result<Ucq, ParseError> {
    transactional(schema, |scratch| {
        let mut parser = Parser::default();
        let mut members: Vec<Rule> = Vec::new();
        for text in rules(input) {
            let rule = parser.rule(scratch, text)?;
            if !rule.inequalities.is_empty() {
                return err("UCQ members may not contain inequalities");
            }
            if let Some(first) = members.first() {
                if first.free.len() != rule.free.len() {
                    return err(format!(
                        "UCQ members disagree on head arity: {} and {}",
                        first.free.len(),
                        rule.free.len()
                    ));
                }
            }
            members.push(rule);
        }
        let schema = &*scratch;
        Ok(Ucq::new(
            members.into_iter().map(|rule| rule.into_cq(schema)),
        ))
    })
}

/// The rules of `input`: its non-empty lines and `;`-separated parts.
fn rules(input: &str) -> impl Iterator<Item = &str> {
    input
        .split([';', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
}

/// Parses `input` as exactly one rule.
fn single_rule(schema: &mut Schema, input: &str) -> Result<Rule, ParseError> {
    let mut texts = rules(input);
    let (Some(text), None) = (texts.next(), texts.next()) else {
        let found = rules(input).count();
        return err(format!("expected exactly one rule, found {found}"));
    };
    Parser::default().rule(schema, text)
}

/// One parsed rule.  Its relations are registered in the schema already,
/// so it becomes a query over whatever table the schema holds then.
struct Rule {
    free: Vec<QVar>,
    atoms: Vec<Atom>,
    names: Vec<String>,
    inequalities: Vec<(QVar, QVar)>,
}

impl Rule {
    fn into_cq(self, schema: &Schema) -> Cq {
        Cq::new(schema.clone(), self.free, self.atoms, self.names)
    }
}

/// The variable table of the rule being parsed, kept across the rules of
/// one input so that its buffers are allocated once.
struct Parser<'a> {
    /// The variable each name denotes.
    index: HashMap<&'a str, QVar>,
    /// Whether each variable occurs in an atom yet.
    in_atom: Vec<bool>,
}

impl Default for Parser<'_> {
    fn default() -> Self {
        Parser {
            // Room for a typical rule's variables without regrowing.
            index: HashMap::with_capacity(8),
            in_atom: Vec::new(),
        }
    }
}

impl<'a> Parser<'a> {
    /// Parses one rule `head :- body`, registering the relations of its
    /// atoms in `schema`.
    fn rule(&mut self, schema: &mut Schema, text: &'a str) -> Result<Rule, ParseError> {
        let Some((head, body)) = text.split_once(":-") else {
            return err(format!("missing ':-' in rule `{}`", text));
        };
        let (_, head_args) = predicate(head.trim())?;
        for arg in arguments(head_args) {
            check_ident(arg)?;
        }
        self.index.clear();
        self.in_atom.clear();
        let mut rule = Rule {
            free: Vec::new(),
            atoms: Vec::new(),
            names: Vec::new(),
            inequalities: Vec::new(),
        };
        for literal in literals(body) {
            let literal = literal.trim();
            if literal.is_empty() {
                continue;
            }
            if let Some((lhs, rhs)) = literal.split_once("!=") {
                let a = self.var(check_ident(lhs.trim())?, &mut rule.names);
                let b = self.var(check_ident(rhs.trim())?, &mut rule.names);
                if a == b {
                    return err(format!(
                        "inequality `{}` relates a variable to itself",
                        literal
                    ));
                }
                rule.inequalities.push((a, b));
                continue;
            }
            let (name, args) = predicate(literal)?;
            let mut vars = Vec::new();
            for arg in arguments(args) {
                let v = self.var(check_ident(arg)?, &mut rule.names);
                self.in_atom[v.0 as usize] = true;
                vars.push(v);
            }
            // Arity conflicts surface as a `SchemaError` from the fallible
            // declaration API, mapped onto a parse error (never a panic)
            // with use-site wording: inside a query body the conflicting
            // arity is a *use*, not a re-declaration.
            let relation = schema.try_add_relation(name, vars.len()).map_err(
                |SchemaError::ArityConflict {
                     name,
                     existing,
                     requested,
                 }| ParseError {
                    message: format!(
                        "relation {name} used with arity {requested} \
                         but declared with {existing}"
                    ),
                },
            )?;
            rule.atoms.push(Atom::new(relation, vars));
        }
        if rule.atoms.is_empty() {
            return err("a query needs at least one atom");
        }
        // A variable named only in an inequality occurs in no atom: refuse it
        // here, where `Cq::new` would panic on the unsafe query.
        if let Some(unbound) = self.in_atom.iter().position(|&seen| !seen) {
            return err(format!(
                "variable `{}` occurs in no atom",
                rule.names[unbound]
            ));
        }
        for name in arguments(head_args) {
            match self.index.get(name) {
                Some(&v) => rule.free.push(v),
                None => {
                    return err(format!(
                        "head variable `{}` does not occur in the body",
                        name
                    ))
                }
            }
        }
        Ok(rule)
    }

    /// The variable named `name`, numbered on first use.
    fn var(&mut self, name: &'a str, names: &mut Vec<String>) -> QVar {
        *self.index.entry(name).or_insert_with(|| {
            names.push(name.to_string());
            self.in_atom.push(false);
            QVar(names.len() as u32 - 1)
        })
    }
}

/// The literals of a rule body: its text split at the commas outside
/// parentheses (commas inside separate atom arguments).
fn literals(body: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(body);
    std::iter::from_fn(move || {
        let text = rest?;
        let mut depth = 0usize;
        for (i, byte) in text.bytes().enumerate() {
            match byte {
                b'(' => depth += 1,
                b')' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    rest = Some(&text[i + 1..]);
                    return Some(&text[..i]);
                }
                _ => {}
            }
        }
        rest = None;
        Some(text)
    })
}

/// Splits `name(args)` into its checked name and its argument text.
fn predicate(text: &str) -> Result<(&str, &str), ParseError> {
    let Some(open) = text.find('(') else {
        return err(format!("expected `(` in `{}`", text));
    };
    let Some(inner) = text.trim_end().strip_suffix(')') else {
        return err(format!("expected `)` at the end of `{}`", text));
    };
    let name = check_ident(text[..open].trim())?;
    Ok((name, &inner[open + 1..]))
}

/// The trimmed, unchecked arguments of a predicate's argument text.
fn arguments(args: &str) -> impl Iterator<Item = &str> {
    let args = (!args.trim().is_empty()).then_some(args);
    args.into_iter()
        .flat_map(|args| args.split(','))
        .map(str::trim)
}

fn check_ident(text: &str) -> Result<&str, ParseError> {
    if text.is_empty() {
        return err("empty identifier");
    }
    if !text
        .bytes()
        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'\'')
    {
        return err(format!("invalid identifier `{}`", text));
    }
    Ok(text)
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

        // The first literal registers S before the second literal errors
        // with an arity clash — S must NOT survive the failed parse.
        let r = parse_cq(&mut schema, "Q() :- S(x), R(x)");
        assert!(r.is_err());
        assert_eq!(schema.len(), 1);
        assert!(schema.relation("S").is_none());

        // Same through the UCQ path: the first member parses fine and
        // registers T, the second member is garbage.
        let r = parse_ucq(&mut schema, "Q() :- T(x, y) ; Q() :- ");
        assert!(r.is_err());
        assert!(schema.relation("T").is_none());

        // parse_cq rejecting inequalities must also roll back relations
        // registered while parsing the body.
        let r = parse_cq(&mut schema, "Q() :- U(x, y), x != y");
        assert!(r.is_err());
        assert!(schema.relation("U").is_none());

        // A successful parse still commits.
        parse_ucq(&mut schema, "Q() :- S(x, y) ; Q() :- R(y, y)").unwrap();
        assert_eq!(schema.arity(schema.relation("S").unwrap()), 2);
    }
}
