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

use crate::ccq::Ccq;
use crate::cq::{Atom, Cq, QVar};
use crate::schema::{Schema, SchemaError};
use crate::ucq::Ucq;
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
        let ccq = parse_ccq_into(scratch, input)?;
        if !ccq.inequalities().is_empty() {
            return err("expected a plain CQ but found inequalities");
        }
        Ok(ccq.cq().clone())
    })
}

/// Parses a single CQ with (optional) inequalities.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ccq(schema: &mut Schema, input: &str) -> Result<Ccq, ParseError> {
    transactional(schema, |scratch| parse_ccq_into(scratch, input))
}

/// Parses a UCQ: one or more rules separated by `;` (or newlines).  Every
/// rule must have the same number of head variables.
///
/// On error the schema is left untouched (parsing is transactional).
pub fn parse_ucq(schema: &mut Schema, input: &str) -> Result<Ucq, ParseError> {
    transactional(schema, |scratch| {
        let rules = split_rules(input);
        if rules.is_empty() {
            return Ok(Ucq::empty());
        }
        let mut members: Vec<Cq> = Vec::new();
        for rule in rules {
            let ccq = parse_rule(scratch, rule)?;
            if !ccq.inequalities().is_empty() {
                return err("UCQ members may not contain inequalities");
            }
            let cq = ccq.cq();
            if let Some(first) = members.first() {
                if first.free_vars().len() != cq.free_vars().len() {
                    return err(format!(
                        "UCQ members disagree on head arity: {} and {}",
                        first.free_vars().len(),
                        cq.free_vars().len()
                    ));
                }
            }
            members.push(cq.clone());
        }
        Ok(Ucq::new(members))
    })
}

fn parse_ccq_into(schema: &mut Schema, input: &str) -> Result<Ccq, ParseError> {
    let rules = split_rules(input);
    if rules.len() != 1 {
        return err(format!("expected exactly one rule, found {}", rules.len()));
    }
    parse_rule(schema, rules[0])
}

fn split_rules(input: &str) -> Vec<&str> {
    input
        .split([';', '\n'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

fn parse_rule(schema: &mut Schema, rule: &str) -> Result<Ccq, ParseError> {
    let (head, body) = match rule.split_once(":-") {
        Some(parts) => parts,
        None => return err(format!("missing ':-' in rule `{}`", rule)),
    };
    let (_, head_vars) = parse_predicate(head.trim())?;

    let mut vars: Vec<String> = Vec::new();
    let mut index: HashMap<String, QVar> = HashMap::new();
    let intern = |name: &str, vars: &mut Vec<String>, index: &mut HashMap<String, QVar>| {
        if let Some(&v) = index.get(name) {
            v
        } else {
            let v = QVar(vars.len() as u32);
            vars.push(name.to_string());
            index.insert(name.to_string(), v);
            v
        }
    };

    let mut atoms: Vec<Atom> = Vec::new();
    let mut inequalities: Vec<(QVar, QVar)> = Vec::new();
    for literal in split_literals(body) {
        let literal = literal.trim();
        if literal.is_empty() {
            continue;
        }
        if let Some((lhs, rhs)) = literal.split_once("!=") {
            let a = intern(check_ident(lhs.trim())?, &mut vars, &mut index);
            let b = intern(check_ident(rhs.trim())?, &mut vars, &mut index);
            if a == b {
                return err(format!(
                    "inequality `{}` relates a variable to itself",
                    literal
                ));
            }
            inequalities.push((a, b));
        } else {
            let (name, args) = parse_predicate(literal)?;
            // Arity conflicts surface as a `SchemaError` from the fallible
            // declaration API, mapped onto a parse error (never a panic)
            // with use-site wording: inside a query body the conflicting
            // arity is a *use*, not a re-declaration.
            let rel = schema.try_add_relation(&name, args.len()).map_err(
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
            let arg_vars: Vec<QVar> = args
                .iter()
                .map(|a| intern(a, &mut vars, &mut index))
                .collect();
            atoms.push(Atom::new(rel, arg_vars));
        }
    }
    if atoms.is_empty() {
        return err("a query needs at least one atom");
    }
    // A variable named only in an inequality occurs in no atom: refuse it
    // here, where `Cq::new` would panic on the unsafe query.
    let mut in_atom = vec![false; vars.len()];
    for atom in &atoms {
        for arg in &atom.args {
            in_atom[arg.0 as usize] = true;
        }
    }
    if let Some(unbound) = in_atom.iter().position(|&seen| !seen) {
        return err(format!("variable `{}` occurs in no atom", vars[unbound]));
    }

    let mut free = Vec::new();
    for head_var in &head_vars {
        match index.get(head_var) {
            Some(&v) => free.push(v),
            None => {
                return err(format!(
                    "head variable `{}` does not occur in the body",
                    head_var
                ))
            }
        }
    }
    let cq = Cq::new(schema.clone(), free, atoms, vars);
    Ok(Ccq::new(cq, inequalities))
}

/// Splits a rule body at top-level commas (commas inside parentheses separate
/// atom arguments, not literals).
fn split_literals(body: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in body.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&body[start..]);
    parts
}

fn parse_predicate(text: &str) -> Result<(String, Vec<String>), ParseError> {
    let open = match text.find('(') {
        Some(i) => i,
        None => return err(format!("expected `(` in `{}`", text)),
    };
    if !text.trim_end().ends_with(')') {
        return err(format!("expected `)` at the end of `{}`", text));
    }
    let name = check_ident(text[..open].trim())?.to_string();
    let inner = text.trim_end();
    let args_text = &inner[open + 1..inner.len() - 1];
    let args: Vec<String> = if args_text.trim().is_empty() {
        Vec::new()
    } else {
        args_text
            .split(',')
            .map(|a| Ok(check_ident(a.trim())?.to_string()))
            .collect::<Result<Vec<_>, ParseError>>()?
    };
    Ok((name, args))
}

fn check_ident(text: &str) -> Result<&str, ParseError> {
    if text.is_empty() {
        return err("empty identifier");
    }
    if !text
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '\'')
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
