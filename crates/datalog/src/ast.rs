//! Abstract syntax for Datalog¬ programs.

use rd_core::{CmpOp, TableSchema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A term in an atom: a variable, a constant, or the anonymous wildcard
/// `_` ("a variable that appears only once", §2.1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DlTerm {
    /// A named variable.
    Var(String),
    /// A constant.
    Const(Value),
    /// The anonymous variable `_`.
    Wildcard,
}

impl DlTerm {
    /// Variable constructor.
    pub fn var(name: impl Into<String>) -> Self {
        DlTerm::Var(name.into())
    }

    /// Constant constructor.
    pub fn value(v: impl Into<Value>) -> Self {
        DlTerm::Const(v.into())
    }

    /// The variable name, if this is a named variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            DlTerm::Var(v) => Some(v),
            _ => None,
        }
    }
}

impl fmt::Display for DlTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlTerm::Var(v) => write!(f, "{v}"),
            DlTerm::Const(c) => write!(f, "{c}"),
            DlTerm::Wildcard => write!(f, "_"),
        }
    }
}

/// A relational atom `P(t₁,…,tₖ)`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom {
    /// Predicate (table or IDB) name.
    pub pred: String,
    /// Argument terms.
    pub terms: Vec<DlTerm>,
}

impl Atom {
    /// Constructor.
    pub fn new<I: IntoIterator<Item = DlTerm>>(pred: impl Into<String>, terms: I) -> Self {
        Atom {
            pred: pred.into(),
            terms: terms.into_iter().collect(),
        }
    }

    /// Named variables appearing in the atom.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(DlTerm::as_var)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.pred)?;
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

/// A built-in predicate `t₁ θ t₂`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BuiltIn {
    /// Left term.
    pub left: DlTerm,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right term.
    pub right: DlTerm,
}

impl BuiltIn {
    /// Constructor.
    pub fn new(left: DlTerm, op: CmpOp, right: DlTerm) -> Self {
        BuiltIn { left, op, right }
    }

    /// Named variables referenced.
    pub fn vars(&self) -> impl Iterator<Item = &str> {
        self.left.as_var().into_iter().chain(self.right.as_var())
    }
}

impl fmt::Display for BuiltIn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A body literal in source order: positive atom, negated atom, or built-in.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Literal {
    /// `P(..)`
    Pos(Atom),
    /// `not P(..)`
    Neg(Atom),
    /// `x > 5`
    Cmp(BuiltIn),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Pos(a) => write!(f, "{a}"),
            Literal::Neg(a) => write!(f, "not {a}"),
            Literal::Cmp(b) => write!(f, "{b}"),
        }
    }
}

/// A rule `head :- body.`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rule {
    /// Head atom.
    pub head: Atom,
    /// Body literals in source order.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Constructor.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// Positive body atoms.
    pub fn positive(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// Negated body atoms.
    pub fn negative(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Neg(a) => Some(a),
            _ => None,
        })
    }

    /// Built-in predicates.
    pub fn builtins(&self) -> impl Iterator<Item = &BuiltIn> {
        self.body.iter().filter_map(|l| match l {
            Literal::Cmp(b) => Some(b),
            _ => None,
        })
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        for (i, l) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ".")
    }
}

/// A Datalog¬ program: rules plus the designated query predicate.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DlProgram {
    /// Rules in source order.
    pub rules: Vec<Rule>,
    /// The query predicate (defaults to the last rule's head).
    pub query: String,
}

impl DlProgram {
    /// Builds a program whose query is the last rule's head.
    pub fn new(rules: Vec<Rule>) -> Self {
        let query = rules
            .last()
            .map(|r| r.head.pred.clone())
            .unwrap_or_default();
        DlProgram { rules, query }
    }

    /// The schema the program's answer is reported under: the query
    /// predicate over positional attributes `x1, x2, …`.
    pub fn output_schema(&self) -> TableSchema {
        self.idb_schema(&self.query)
    }

    /// The positional schema `pred(x1, x2, …)` of an IDB, its arity
    /// read off its first rule's head.
    pub fn idb_schema(&self, pred: &str) -> TableSchema {
        let arity = self
            .rules
            .iter()
            .find(|r| r.head.pred == pred)
            .map(|r| r.head.terms.len())
            .unwrap_or(0);
        TableSchema::new(
            pred,
            (1..=arity).map(|i| format!("x{i}")).collect::<Vec<_>>(),
        )
    }

    /// The set of IDB predicates (those appearing in a rule head).
    pub fn idbs(&self) -> BTreeSet<String> {
        self.rules.iter().map(|r| r.head.pred.clone()).collect()
    }

    /// The *signature* of the program (Def. 9): the ordered list of its
    /// EDB table references, in source order across rules and body
    /// literals. IDB references are intermediate views and excluded by
    /// design (§4.2).
    pub fn signature(&self) -> Vec<String> {
        let idbs = self.idbs();
        let mut out = Vec::new();
        for rule in &self.rules {
            for lit in &rule.body {
                match lit {
                    Literal::Pos(a) | Literal::Neg(a) => {
                        if !idbs.contains(&a.pred) {
                            out.push(a.pred.clone());
                        }
                    }
                    Literal::Cmp(_) => {}
                }
            }
        }
        out
    }

    /// Renames the `index`-th EDB reference (0-based, signature order) to
    /// `to`. Returns true if the index existed.
    pub fn rename_table_ref(&mut self, index: usize, to: &str) -> bool {
        let idbs = self.idbs();
        let mut seen = 0usize;
        for rule in &mut self.rules {
            for lit in &mut rule.body {
                let atom = match lit {
                    Literal::Pos(a) | Literal::Neg(a) => a,
                    Literal::Cmp(_) => continue,
                };
                if idbs.contains(&atom.pred) {
                    continue;
                }
                if seen == index {
                    atom.pred = to.to_string();
                    return true;
                }
                seen += 1;
            }
        }
        false
    }
}

impl fmt::Display for DlProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.rules.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The division program (eq. 16).
    pub(crate) fn division() -> DlProgram {
        DlProgram::new(vec![
            Rule::new(
                Atom::new("I", [DlTerm::var("x")]),
                vec![
                    Literal::Pos(Atom::new("R", [DlTerm::var("x"), DlTerm::Wildcard])),
                    Literal::Pos(Atom::new("S", [DlTerm::var("y")])),
                    Literal::Neg(Atom::new("R", [DlTerm::var("x"), DlTerm::var("y")])),
                ],
            ),
            Rule::new(
                Atom::new("Q", [DlTerm::var("x")]),
                vec![
                    Literal::Pos(Atom::new("R", [DlTerm::var("x"), DlTerm::Wildcard])),
                    Literal::Neg(Atom::new("I", [DlTerm::var("x")])),
                ],
            ),
        ])
    }

    #[test]
    fn signature_excludes_idbs() {
        let p = division();
        assert_eq!(p.signature(), vec!["R", "S", "R", "R"]);
        assert_eq!(p.query, "Q");
        assert_eq!(
            p.idbs().into_iter().collect::<Vec<_>>(),
            vec!["I".to_string(), "Q".into()]
        );
    }

    #[test]
    fn display_matches_paper_style() {
        let p = division();
        let text = p.to_string();
        assert!(text.contains("I(x) :- R(x, _), S(y), not R(x, y)."));
        assert!(text.contains("Q(x) :- R(x, _), not I(x)."));
    }

    #[test]
    fn rename_table_ref_by_signature_index() {
        let mut p = division();
        assert!(p.rename_table_ref(2, "R_2"));
        assert_eq!(p.signature(), vec!["R", "S", "R_2", "R"]);
        assert!(!p.rename_table_ref(9, "X"));
    }
}
