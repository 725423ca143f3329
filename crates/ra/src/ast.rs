//! Relational algebra expressions and schema inference.

use rd_core::{Catalog, CmpOp, CoreError, CoreResult, TableSchema, Value};
use std::fmt;

/// One side of a selection condition: an attribute of the input schema or
/// a constant.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaTerm {
    /// Attribute by name.
    Attr(String),
    /// Constant value.
    Const(Value),
}

impl RaTerm {
    /// Attribute constructor.
    pub fn attr(name: impl Into<String>) -> Self {
        RaTerm::Attr(name.into())
    }

    /// Constant constructor.
    pub fn value(v: impl Into<Value>) -> Self {
        RaTerm::Const(v.into())
    }
}

impl fmt::Display for RaTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaTerm::Attr(a) => write!(f, "{a}"),
            RaTerm::Const(v) => write!(f, "{v}"),
        }
    }
}

/// A selection condition.
///
/// RA\* (Def. 2) restricts selections to conjunctions of *simple*
/// conditions `X θ Y`; full RA additionally allows disjunction (§2.2's
/// example uses `σ_{A=D ∨ A=C}`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Condition {
    /// A simple comparison `X θ Y`.
    Cmp(RaTerm, CmpOp, RaTerm),
    /// Conjunction.
    And(Vec<Condition>),
    /// Disjunction (outside RA\*).
    Or(Vec<Condition>),
}

impl Condition {
    /// Simple comparison constructor.
    pub fn cmp(left: RaTerm, op: CmpOp, right: RaTerm) -> Self {
        Condition::Cmp(left, op, right)
    }

    /// Equality between two attributes.
    pub fn eq_attr(left: impl Into<String>, right: impl Into<String>) -> Self {
        Condition::Cmp(RaTerm::attr(left), CmpOp::Eq, RaTerm::attr(right))
    }

    /// `true` if no disjunction occurs anywhere in the condition.
    pub fn is_conjunctive(&self) -> bool {
        match self {
            Condition::Cmp(..) => true,
            Condition::And(cs) => cs.iter().all(Condition::is_conjunctive),
            Condition::Or(_) => false,
        }
    }

    /// All attribute names referenced.
    pub fn attrs(&self) -> Vec<&str> {
        fn walk<'a>(c: &'a Condition, out: &mut Vec<&'a str>) {
            match c {
                Condition::Cmp(l, _, r) => {
                    if let RaTerm::Attr(a) = l {
                        out.push(a);
                    }
                    if let RaTerm::Attr(a) = r {
                        out.push(a);
                    }
                }
                Condition::And(cs) | Condition::Or(cs) => {
                    for c in cs {
                        walk(c, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Cmp(l, op, r) => write!(f, "{l}{op}{r}"),
            Condition::And(cs) => {
                let parts: Vec<String> = cs.iter().map(|c| c.to_string()).collect();
                write!(f, "{}", parts.join(" and "))
            }
            Condition::Or(cs) => {
                let parts: Vec<String> = cs
                    .iter()
                    .map(|c| match c {
                        Condition::And(_) => format!("({c})"),
                        _ => c.to_string(),
                    })
                    .collect();
                write!(f, "{}", parts.join(" or "))
            }
        }
    }
}

/// A θ-join / antijoin condition: a conjunction of `leftAttr θ rightAttr`
/// atoms, where the left attribute resolves in the left operand's schema
/// and the right attribute in the right operand's (this removes the
/// ambiguity of identically-named attributes on both sides).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JoinCond(pub Vec<(String, CmpOp, String)>);

impl JoinCond {
    /// Single equality `l = r`.
    pub fn eq(l: impl Into<String>, r: impl Into<String>) -> Self {
        JoinCond(vec![(l.into(), CmpOp::Eq, r.into())])
    }
}

impl fmt::Display for JoinCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .0
            .iter()
            .map(|(l, op, r)| format!("{l}{op}{r}"))
            .collect();
        write!(f, "{}", parts.join(" and "))
    }
}

/// A relational algebra expression.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaExpr {
    /// A base table reference.
    Table(String),
    /// Projection `π_{attrs}(e)`.
    Project(Vec<String>, Box<RaExpr>),
    /// Selection `σ_c(e)`.
    Select(Condition, Box<RaExpr>),
    /// Cartesian product `l × r` (schemas must be disjoint).
    Product(Box<RaExpr>, Box<RaExpr>),
    /// θ-join `l ⋈_c r` = `σ_c(l × r)` with side-resolved condition.
    Join(JoinCond, Box<RaExpr>, Box<RaExpr>),
    /// Natural join `l ⋈ r` on identically-named attributes.
    NaturalJoin(Box<RaExpr>, Box<RaExpr>),
    /// Rename `ρ_{a→b,…}(e)`.
    Rename(Vec<(String, String)>, Box<RaExpr>),
    /// Difference `l − r` (identical schemas).
    Diff(Box<RaExpr>, Box<RaExpr>),
    /// Union `l ∪ r` (identical schemas; outside RA\*).
    Union(Box<RaExpr>, Box<RaExpr>),
    /// Antijoin `l ⊲_c r`: tuples of `l` with no joining tuple in `r`
    /// (Appendix G.1). An empty condition is the natural antijoin.
    Antijoin(JoinCond, Box<RaExpr>, Box<RaExpr>),
}

impl RaExpr {
    /// Base-table reference.
    pub fn table(name: impl Into<String>) -> Self {
        RaExpr::Table(name.into())
    }

    /// Projection helper.
    pub fn project<S: Into<String>, I: IntoIterator<Item = S>>(attrs: I, e: RaExpr) -> Self {
        RaExpr::Project(attrs.into_iter().map(Into::into).collect(), Box::new(e))
    }

    /// Selection helper.
    pub fn select(cond: Condition, e: RaExpr) -> Self {
        RaExpr::Select(cond, Box::new(e))
    }

    /// Product helper.
    pub fn product(l: RaExpr, r: RaExpr) -> Self {
        RaExpr::Product(Box::new(l), Box::new(r))
    }

    /// Difference helper.
    pub fn diff(l: RaExpr, r: RaExpr) -> Self {
        RaExpr::Diff(Box::new(l), Box::new(r))
    }

    /// Union helper.
    pub fn union(l: RaExpr, r: RaExpr) -> Self {
        RaExpr::Union(Box::new(l), Box::new(r))
    }

    /// Rename helper.
    pub fn rename<S: Into<String>, T: Into<String>, I: IntoIterator<Item = (S, T)>>(
        renames: I,
        e: RaExpr,
    ) -> Self {
        RaExpr::Rename(
            renames
                .into_iter()
                .map(|(a, b)| (a.into(), b.into()))
                .collect(),
            Box::new(e),
        )
    }

    /// Natural-join helper.
    pub fn natural_join(l: RaExpr, r: RaExpr) -> Self {
        RaExpr::NaturalJoin(Box::new(l), Box::new(r))
    }

    /// θ-join helper.
    pub fn join(cond: JoinCond, l: RaExpr, r: RaExpr) -> Self {
        RaExpr::Join(cond, Box::new(l), Box::new(r))
    }

    /// Antijoin helper.
    pub fn antijoin(cond: JoinCond, l: RaExpr, r: RaExpr) -> Self {
        RaExpr::Antijoin(cond, Box::new(l), Box::new(r))
    }

    /// The *signature* of the expression (Def. 9): its table references in
    /// left-to-right syntactic order.
    pub fn signature(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_tables(&mut |t| out.push(t.to_string()));
        out
    }

    /// Visits base-table references left to right.
    pub fn visit_tables<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        match self {
            RaExpr::Table(t) => f(t),
            RaExpr::Project(_, e) | RaExpr::Select(_, e) | RaExpr::Rename(_, e) => {
                e.visit_tables(f)
            }
            RaExpr::Product(l, r)
            | RaExpr::Join(_, l, r)
            | RaExpr::NaturalJoin(l, r)
            | RaExpr::Diff(l, r)
            | RaExpr::Union(l, r)
            | RaExpr::Antijoin(_, l, r) => {
                l.visit_tables(f);
                r.visit_tables(f);
            }
        }
    }

    /// Renames base-table references (dissociation support). Renames the
    /// `index`-th reference (0-based, left-to-right) to `to`; returns true
    /// if the index existed.
    pub fn rename_table_ref(&mut self, index: usize, to: &str) -> bool {
        fn walk(e: &mut RaExpr, index: usize, to: &str, seen: &mut usize) -> bool {
            match e {
                RaExpr::Table(t) => {
                    if *seen == index {
                        *t = to.to_string();
                        *seen += 1;
                        true
                    } else {
                        *seen += 1;
                        false
                    }
                }
                RaExpr::Project(_, inner) | RaExpr::Select(_, inner) | RaExpr::Rename(_, inner) => {
                    walk(inner, index, to, seen)
                }
                RaExpr::Product(l, r)
                | RaExpr::Join(_, l, r)
                | RaExpr::NaturalJoin(l, r)
                | RaExpr::Diff(l, r)
                | RaExpr::Union(l, r)
                | RaExpr::Antijoin(_, l, r) => walk(l, index, to, seen) || walk(r, index, to, seen),
            }
        }
        walk(self, index, to, &mut 0)
    }

    /// The schema an expression's answer is reported under: the
    /// conventional result name `q` over [`schema`](RaExpr::schema).
    pub fn output_schema(&self, catalog: &Catalog) -> CoreResult<TableSchema> {
        TableSchema::try_new("q", self.schema(catalog)?)
    }

    /// Infers the output schema (ordered attribute names), validating the
    /// expression against `catalog`:
    /// * projections/selections/conditions reference existing attributes;
    /// * products require disjoint schemas;
    /// * difference and union require identical schemas;
    /// * renames must be injective and reference existing attributes.
    pub fn schema(&self, catalog: &Catalog) -> CoreResult<Vec<String>> {
        match self {
            RaExpr::Table(t) => Ok(catalog.require(t)?.attrs().to_vec()),
            RaExpr::Project(attrs, e) => {
                let inner = e.schema(catalog)?;
                for a in attrs {
                    if !inner.contains(a) {
                        return Err(CoreError::Invalid(format!(
                            "projection attribute '{a}' not in input schema {inner:?}"
                        )));
                    }
                }
                let mut seen = Vec::new();
                for a in attrs {
                    if seen.contains(a) {
                        return Err(CoreError::Invalid(format!(
                            "duplicate projection attribute '{a}'"
                        )));
                    }
                    seen.push(a.clone());
                }
                Ok(attrs.clone())
            }
            RaExpr::Select(cond, e) => {
                let inner = e.schema(catalog)?;
                for a in cond.attrs() {
                    if !inner.iter().any(|x| x == a) {
                        return Err(CoreError::Invalid(format!(
                            "selection attribute '{a}' not in input schema {inner:?}"
                        )));
                    }
                }
                Ok(inner)
            }
            RaExpr::Product(l, r) => {
                let ls = l.schema(catalog)?;
                let rs = r.schema(catalog)?;
                for a in &rs {
                    if ls.contains(a) {
                        return Err(CoreError::Invalid(format!(
                            "product schemas overlap on '{a}' — use rename (ρ)"
                        )));
                    }
                }
                Ok(ls.into_iter().chain(rs).collect())
            }
            RaExpr::Join(cond, l, r) => {
                let ls = l.schema(catalog)?;
                let rs = r.schema(catalog)?;
                for (la, _, ra) in &cond.0 {
                    if !ls.contains(la) {
                        return Err(CoreError::Invalid(format!(
                            "join attribute '{la}' not in left schema {ls:?}"
                        )));
                    }
                    if !rs.contains(ra) {
                        return Err(CoreError::Invalid(format!(
                            "join attribute '{ra}' not in right schema {rs:?}"
                        )));
                    }
                }
                for a in &rs {
                    if ls.contains(a) {
                        return Err(CoreError::Invalid(format!(
                            "theta-join schemas overlap on '{a}' — use rename (ρ)"
                        )));
                    }
                }
                Ok(ls.into_iter().chain(rs).collect())
            }
            RaExpr::NaturalJoin(l, r) => {
                let ls = l.schema(catalog)?;
                let rs = r.schema(catalog)?;
                let mut out = ls.clone();
                out.extend(rs.into_iter().filter(|a| !ls.contains(a)));
                Ok(out)
            }
            RaExpr::Rename(renames, e) => {
                let mut inner = e.schema(catalog)?;
                for (from, to) in renames {
                    let idx = inner.iter().position(|a| a == from).ok_or_else(|| {
                        CoreError::Invalid(format!("rename source '{from}' not in schema"))
                    })?;
                    if inner.contains(to) {
                        return Err(CoreError::Invalid(format!(
                            "rename target '{to}' already in schema"
                        )));
                    }
                    inner[idx] = to.clone();
                }
                Ok(inner)
            }
            RaExpr::Diff(l, r) | RaExpr::Union(l, r) => {
                let ls = l.schema(catalog)?;
                let rs = r.schema(catalog)?;
                if ls != rs {
                    return Err(CoreError::Invalid(format!(
                        "difference/union require identical schemas, got {ls:?} vs {rs:?}"
                    )));
                }
                Ok(ls)
            }
            RaExpr::Antijoin(cond, l, r) => {
                let ls = l.schema(catalog)?;
                let rs = r.schema(catalog)?;
                if cond.0.is_empty() {
                    // Natural antijoin: join on all shared names.
                    if !rs.iter().any(|a| ls.contains(a)) {
                        return Err(CoreError::Invalid(
                            "natural antijoin requires at least one shared attribute".into(),
                        ));
                    }
                } else {
                    for (la, _, ra) in &cond.0 {
                        if !ls.contains(la) {
                            return Err(CoreError::Invalid(format!(
                                "antijoin attribute '{la}' not in left schema {ls:?}"
                            )));
                        }
                        if !rs.contains(ra) {
                            return Err(CoreError::Invalid(format!(
                                "antijoin attribute '{ra}' not in right schema {rs:?}"
                            )));
                        }
                    }
                }
                Ok(ls)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rd_core::TableSchema;

    fn catalog() -> Catalog {
        Catalog::from_schemas([
            TableSchema::new("R", ["A", "B"]),
            TableSchema::new("S", ["B"]),
            TableSchema::new("T", ["A"]),
        ])
        .unwrap()
    }

    #[test]
    fn division_schema_and_signature() {
        // π_A R − π_A((π_A R × S) − R)   (eq. 15)
        let e = RaExpr::diff(
            RaExpr::project(["A"], RaExpr::table("R")),
            RaExpr::project(
                ["A"],
                RaExpr::diff(
                    RaExpr::product(
                        RaExpr::project(["A"], RaExpr::table("R")),
                        RaExpr::table("S"),
                    ),
                    RaExpr::table("R"),
                ),
            ),
        );
        assert_eq!(e.schema(&catalog()).unwrap(), vec!["A"]);
        assert_eq!(e.signature(), vec!["R", "R", "S", "R"]);
    }

    #[test]
    fn product_requires_disjoint_schemas() {
        let e = RaExpr::product(RaExpr::table("R"), RaExpr::table("R"));
        assert!(e.schema(&catalog()).is_err());
        let e = RaExpr::product(
            RaExpr::table("R"),
            RaExpr::rename([("A", "A2"), ("B", "B2")], RaExpr::table("R")),
        );
        assert_eq!(e.schema(&catalog()).unwrap(), vec!["A", "B", "A2", "B2"]);
    }

    #[test]
    fn diff_requires_same_schema() {
        let e = RaExpr::diff(RaExpr::table("R"), RaExpr::table("S"));
        assert!(e.schema(&catalog()).is_err());
    }

    #[test]
    fn natural_join_merges_shared() {
        let e = RaExpr::natural_join(RaExpr::table("R"), RaExpr::table("S"));
        assert_eq!(e.schema(&catalog()).unwrap(), vec!["A", "B"]);
    }

    #[test]
    fn antijoin_schema_is_left() {
        let e = RaExpr::antijoin(
            JoinCond::eq("B", "B"),
            RaExpr::table("R"),
            RaExpr::table("S"),
        );
        assert_eq!(e.schema(&catalog()).unwrap(), vec!["A", "B"]);
        let natural = RaExpr::antijoin(JoinCond(vec![]), RaExpr::table("R"), RaExpr::table("S"));
        assert_eq!(natural.schema(&catalog()).unwrap(), vec!["A", "B"]);
    }

    #[test]
    fn rename_validation() {
        assert!(RaExpr::rename([("Z", "Y")], RaExpr::table("R"))
            .schema(&catalog())
            .is_err());
        assert!(RaExpr::rename([("A", "B")], RaExpr::table("R"))
            .schema(&catalog())
            .is_err());
    }

    #[test]
    fn projection_validation() {
        assert!(RaExpr::project(["Z"], RaExpr::table("R"))
            .schema(&catalog())
            .is_err());
        assert!(RaExpr::project(["A", "A"], RaExpr::table("R"))
            .schema(&catalog())
            .is_err());
    }

    #[test]
    fn rename_table_ref_targets_by_index() {
        let mut e = RaExpr::diff(
            RaExpr::project(["A"], RaExpr::table("R")),
            RaExpr::project(["A"], RaExpr::table("R")),
        );
        assert!(e.rename_table_ref(1, "R_2"));
        assert_eq!(e.signature(), vec!["R", "R_2"]);
        assert!(!e.rename_table_ref(5, "X"));
    }

    #[test]
    fn condition_helpers() {
        let c = Condition::Or(vec![
            Condition::eq_attr("A", "D"),
            Condition::eq_attr("A", "C"),
        ]);
        assert!(!c.is_conjunctive());
        assert_eq!(c.attrs(), vec!["A", "D", "A", "C"]);
        assert_eq!(c.to_string(), "A=D or A=C");
    }
}
