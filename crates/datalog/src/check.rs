//! Safety, stratification and fragment checks for Datalog¬ programs.

use crate::ast::{DlProgram, DlTerm, Literal};
use rd_core::{Catalog, CoreError, CoreResult};
use std::collections::{BTreeMap, BTreeSet};

/// Full validation used by [`crate::parser::parse_program`]:
/// 1. arities consistent (EDBs against the catalog; IDBs across uses);
/// 2. rule safety: every variable of the head, of negated atoms, and of
///    built-ins occurs in a positive relational subgoal [Ceri et al. 89];
/// 3. non-recursive dependency graph;
/// 4. no wildcard in rule heads or built-ins (a wildcard has no value
///    to project or compare);
/// 5. the query predicate is defined.
pub fn check_program(p: &DlProgram, catalog: &Catalog) -> CoreResult<()> {
    let idbs = p.idbs();
    let mut idb_arity: BTreeMap<String, usize> = BTreeMap::new();

    // Arity checks.
    let mut check_atom = |pred: &str, arity: usize| -> CoreResult<()> {
        if idbs.contains(pred) {
            match idb_arity.get(pred) {
                Some(&a) if a != arity => Err(CoreError::Invalid(format!(
                    "IDB '{pred}' used with arities {a} and {arity}"
                ))),
                Some(_) => Ok(()),
                None => {
                    idb_arity.insert(pred.to_string(), arity);
                    Ok(())
                }
            }
        } else {
            let schema = catalog.require(pred)?;
            if schema.arity() != arity {
                return Err(CoreError::ArityMismatch {
                    table: pred.to_string(),
                    expected: schema.arity(),
                    actual: arity,
                });
            }
            Ok(())
        }
    };
    for rule in &p.rules {
        check_atom(&rule.head.pred, rule.head.terms.len())?;
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                check_atom(&a.pred, a.terms.len())?;
            }
        }
    }

    // Safety per rule.
    for rule in &p.rules {
        let positive_vars: BTreeSet<&str> = rule.positive().flat_map(|a| a.vars()).collect();
        for v in rule.head.vars() {
            if !positive_vars.contains(v) {
                return Err(CoreError::Invalid(format!(
                    "unsafe rule: head variable '{v}' not bound by a positive subgoal in '{rule}'"
                )));
            }
        }
        if rule
            .head
            .terms
            .iter()
            .any(|t| matches!(t, DlTerm::Wildcard))
        {
            return Err(CoreError::Invalid(format!(
                "wildcard not allowed in rule head: '{rule}'"
            )));
        }
        if rule
            .builtins()
            .any(|b| matches!(b.left, DlTerm::Wildcard) || matches!(b.right, DlTerm::Wildcard))
        {
            return Err(CoreError::Invalid(format!(
                "wildcard not allowed in built-in: '{rule}'"
            )));
        }
        for atom in rule.negative() {
            for v in atom.vars() {
                if !positive_vars.contains(v) {
                    return Err(CoreError::Invalid(format!(
                        "unsafe rule: variable '{v}' of negated atom not bound positively in '{rule}'"
                    )));
                }
            }
        }
        for b in rule.builtins() {
            for v in b.vars() {
                if !positive_vars.contains(v) {
                    return Err(CoreError::Invalid(format!(
                        "unsafe rule: variable '{v}' of built-in not bound positively in '{rule}'"
                    )));
                }
            }
        }
    }

    if !is_nonrecursive(p) {
        return Err(CoreError::Invalid("program is recursive".into()));
    }
    if !idbs.contains(&p.query) {
        return Err(CoreError::Invalid(format!(
            "query predicate '{}' is not defined by any rule",
            p.query
        )));
    }
    Ok(())
}

/// `true` if every rule satisfies the standard safety conditions
/// (delegates to [`check_program`] logic without catalog knowledge; EDB
/// arity errors are ignored).
pub fn is_safe(p: &DlProgram) -> bool {
    for rule in &p.rules {
        let positive_vars: BTreeSet<&str> = rule.positive().flat_map(|a| a.vars()).collect();
        let head_ok = rule.head.vars().all(|v| positive_vars.contains(v));
        let neg_ok = rule
            .negative()
            .all(|a| a.vars().all(|v| positive_vars.contains(v)));
        let builtin_ok = rule
            .builtins()
            .all(|b| b.vars().all(|v| positive_vars.contains(v)));
        if !(head_ok && neg_ok && builtin_ok) {
            return false;
        }
    }
    true
}

/// `true` if the IDB dependency graph is acyclic (no IDB reachable from
/// itself through rule bodies).
pub fn is_nonrecursive(p: &DlProgram) -> bool {
    let idbs = p.idbs();
    // Edges: head -> IDBs in body.
    let mut edges: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for rule in &p.rules {
        let entry = edges.entry(&rule.head.pred).or_default();
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred) {
                    entry.insert(&a.pred);
                }
            }
        }
    }
    // DFS cycle detection.
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = idbs.iter().map(|i| (i.as_str(), Mark::White)).collect();
    fn dfs<'a>(
        node: &'a str,
        edges: &BTreeMap<&'a str, BTreeSet<&'a str>>,
        marks: &mut BTreeMap<&'a str, Mark>,
    ) -> bool {
        match marks.get(node).copied() {
            Some(Mark::Gray) => return false,
            Some(Mark::Black) | None => return true,
            Some(Mark::White) => {}
        }
        marks.insert(node, Mark::Gray);
        if let Some(next) = edges.get(node) {
            for n in next {
                if !dfs(n, edges, marks) {
                    return false;
                }
            }
        }
        marks.insert(node, Mark::Black);
        true
    }
    let nodes: Vec<&str> = idbs.iter().map(String::as_str).collect();
    nodes.iter().all(|n| dfs(n, &edges, &mut marks))
}

/// `true` if the program lies in Datalog\* (Definition 1): non-recursive,
/// every IDB appears in the head of **exactly one** rule, and every IDB is
/// used **at most once** across all rule bodies.
pub fn is_datalog_star(p: &DlProgram) -> bool {
    if !is_nonrecursive(p) || !is_safe(p) {
        return false;
    }
    // Exactly one defining rule per IDB.
    let mut head_counts: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in &p.rules {
        *head_counts.entry(&rule.head.pred).or_default() += 1;
    }
    if head_counts.values().any(|&c| c != 1) {
        return false;
    }
    // Each IDB used at most once across all bodies.
    let idbs = p.idbs();
    let mut body_uses: BTreeMap<&str, usize> = BTreeMap::new();
    for rule in &p.rules {
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred) {
                    *body_uses.entry(&a.pred).or_default() += 1;
                }
            }
        }
    }
    body_uses.values().all(|&c| c <= 1)
}

/// Topological evaluation order of the IDB predicates (dependencies
/// first). Assumes [`is_nonrecursive`].
pub fn topo_order(p: &DlProgram) -> Vec<String> {
    let idbs = p.idbs();
    let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for rule in &p.rules {
        let entry = deps.entry(rule.head.pred.clone()).or_default();
        for lit in &rule.body {
            if let Literal::Pos(a) | Literal::Neg(a) = lit {
                if idbs.contains(&a.pred) && a.pred != rule.head.pred {
                    entry.insert(a.pred.clone());
                }
            }
        }
    }
    let mut order = Vec::new();
    let mut done: BTreeSet<String> = BTreeSet::new();
    fn visit(
        node: &str,
        deps: &BTreeMap<String, BTreeSet<String>>,
        done: &mut BTreeSet<String>,
        order: &mut Vec<String>,
    ) {
        if done.contains(node) {
            return;
        }
        done.insert(node.to_string());
        if let Some(ds) = deps.get(node) {
            for d in ds {
                visit(d, deps, done, order);
            }
        }
        order.push(node.to_string());
    }
    for idb in &idbs {
        visit(idb, &deps, &mut done, &mut order);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_unchecked;
    use rd_core::TableSchema;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
        ])
        .unwrap()
    }

    #[test]
    fn division_is_datalog_star() {
        let p = parse_program_unchecked(
            "I(x) :- R(x, _), S(y), not R(x, y).\nQ(x) :- R(x, _), not I(x).",
        )
        .unwrap();
        assert!(check_program(&p, &catalog()).is_ok());
        assert!(is_datalog_star(&p));
        assert_eq!(topo_order(&p), vec!["I".to_string(), "Q".into()]);
    }

    #[test]
    fn disjunction_via_repeated_head_excluded() {
        // The query from eq. (3): Q defined by two rules.
        let p = parse_program_unchecked(
            "Q(x) :- R(x, y), S(x), T(_), y > 5.\nQ(x) :- R(x, y), S(_), T(x), y > 5.",
        )
        .unwrap();
        assert!(is_safe(&p));
        assert!(is_nonrecursive(&p));
        assert!(!is_datalog_star(&p));
    }

    #[test]
    fn idb_reuse_excluded() {
        let p = parse_program_unchecked("I(x) :- R(x, _).\nQ(x) :- I(x), not I(x).").unwrap();
        assert!(!is_datalog_star(&p));
    }

    #[test]
    fn recursion_rejected() {
        let p = parse_program_unchecked("Q(x) :- R(x, y), Q(y).").unwrap();
        assert!(!is_nonrecursive(&p));
        assert!(check_program(&p, &catalog()).is_err());
    }

    #[test]
    fn unsafe_rules_rejected() {
        // Head variable not positively bound.
        let p = parse_program_unchecked("Q(x, z) :- R(x, y).").unwrap();
        assert!(!is_safe(&p));
        // Negated variable not positively bound.
        let p = parse_program_unchecked("Q(x) :- R(x, _), not S(y).").unwrap();
        assert!(!is_safe(&p));
        // Built-in variable not positively bound.
        let p = parse_program_unchecked("Q(x) :- R(x, _), y > 5.").unwrap();
        assert!(!is_safe(&p));
    }

    #[test]
    fn arity_mismatch_detected() {
        let p = parse_program_unchecked("Q(x) :- R(x).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
        let p = parse_program_unchecked("I(x) :- R(x, _).\nQ(x) :- I(x, x).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
    }

    #[test]
    fn wildcard_in_head_rejected() {
        let p = parse_program_unchecked("Q(_) :- R(x, _).").unwrap();
        assert!(check_program(&p, &catalog()).is_err());
        // Nor in a built-in: the same typed error, whatever the data.
        let p = parse_program_unchecked("Q(x) :- R(x, _), x > _.").unwrap();
        match check_program(&p, &catalog()) {
            Err(CoreError::Invalid(msg)) => assert!(msg.contains("built-in"), "{msg}"),
            other => panic!("expected an Invalid error, got {other:?}"),
        }
    }
}
