//! The parsed, checked, canonicalized form of a query — the unit the
//! session's cache stores.

use crate::Language;
use rd_core::exec::{self, Plan};
use rd_core::{Catalog, CoreResult, Database, PlanHints, PlannerOpts, Relation};
use rd_datalog::DlProgram;
use rd_ra::RaExpr;
use rd_sql::SqlUnion;
use rd_trc::TrcUnion;

/// A query parsed in its source language and brought to canonical form.
///
/// TRC and SQL artifacts hold *unions* (the relationally complete §5
/// languages); a plain query is a one-branch union. Datalog expresses
/// disjunction natively through multiple rules, and RA through `∪`.
#[derive(Debug, Clone, PartialEq)]
pub enum Artifact {
    /// A canonicalized TRC union.
    Trc(TrcUnion),
    /// A canonicalized SQL\* union.
    Sql(SqlUnion),
    /// A relational algebra expression.
    Ra(RaExpr),
    /// A non-recursive Datalog¬ program.
    Datalog(DlProgram),
}

impl Artifact {
    /// Parses and canonicalizes `text` as `language` against `catalog`.
    ///
    /// This is the expensive step the session cache amortizes: lexing,
    /// recursive-descent parsing, well-formedness + safety checks, and
    /// canonicalization.
    pub fn prepare(language: Language, text: &str, catalog: &Catalog) -> CoreResult<Artifact> {
        match language {
            Language::Trc => {
                let u = rd_trc::parse_union(text, catalog)?;
                Ok(Artifact::Trc(rd_trc::canon::canonicalize_union(&u)))
            }
            Language::Sql => {
                let u = rd_sql::parse_sql(text, catalog)?;
                Ok(Artifact::Sql(rd_sql::canonicalize_sql(&u, catalog)?))
            }
            Language::Ra => Ok(Artifact::Ra(rd_ra::parse(text, catalog)?)),
            Language::Datalog => Ok(Artifact::Datalog(rd_datalog::parse_program(text, catalog)?)),
        }
    }

    /// The artifact's language.
    pub fn language(&self) -> Language {
        match self {
            Artifact::Trc(_) => Language::Trc,
            Artifact::Sql(_) => Language::Sql,
            Artifact::Ra(_) => Language::Ra,
            Artifact::Datalog(_) => Language::Datalog,
        }
    }

    /// The canonical text rendering in the source language.
    pub fn canonical_text(&self) -> String {
        match self {
            Artifact::Trc(u) => rd_trc::printer::union_to_ascii(u),
            Artifact::Sql(u) => rd_sql::printer::format_sql_union(u),
            Artifact::Ra(e) => rd_ra::printer::to_ascii(e),
            Artifact::Datalog(p) => p.to_string(),
        }
    }

    /// The query's signature — the ordered list of table references
    /// (Def. 9), the backbone of its pattern.
    pub fn signature(&self) -> Vec<String> {
        match self {
            Artifact::Trc(u) => u.branches.iter().flat_map(|q| q.signature()).collect(),
            Artifact::Sql(u) => u.signature(),
            Artifact::Ra(e) => e.signature(),
            Artifact::Datalog(p) => p.signature(),
        }
    }

    /// Lowers the artifact onto the shared plan IR ([`rd_core::exec`])
    /// against `db`'s catalog, statistics, and symbol table. The
    /// compiled [`Plan`] carries no borrows and stays valid for the
    /// lifetime of the database epoch, so the engine caches it and
    /// skips this step on repeat traffic.
    pub fn compile(&self, db: &Database) -> CoreResult<Plan> {
        self.compile_with(db, &PlannerOpts::default(), &PlanHints::default())
    }

    /// Like [`compile`](Artifact::compile), but with explicit planner
    /// options and cardinality hints. The engine threads execution
    /// feedback (observed result and per-stratum view sizes) back
    /// through `hints` when it re-plans a query whose estimates proved
    /// badly wrong.
    ///
    /// Every language compiles through the TRC hub: SQL by its 1-to-1
    /// translation, RA and Datalog by [`rd_translate::eval`], which
    /// keeps unions and shared IDBs as views.
    pub fn compile_with(
        &self,
        db: &Database,
        opts: &PlannerOpts,
        hints: &PlanHints,
    ) -> CoreResult<Plan> {
        match self {
            Artifact::Trc(u) => rd_trc::eval::lower_union_with(u, db, opts, hints),
            Artifact::Sql(u) => rd_sql::lower_sql_with(u, db, opts, hints),
            Artifact::Ra(e) => rd_translate::lower_ra(e, db, opts, hints),
            Artifact::Datalog(p) => rd_translate::lower_program(p, db, opts, hints),
        }
    }

    /// Evaluates the artifact over `db` under its source language's
    /// answer schema, normalizing the output to a
    /// [`Relation`]: one [`compile`](Artifact::compile) followed by one
    /// pass of the shared executor. Boolean sentences (TRC `φ` without
    /// an output head, SQL `SELECT [NOT] EXISTS ...`) evaluate to a
    /// 0-ary relation: one empty tuple for `true`, empty for `false`.
    pub fn eval(&self, db: &Database) -> CoreResult<Relation> {
        exec::execute(&self.compile(db)?, db)
    }
}
