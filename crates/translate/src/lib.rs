//! # rd-translate — cross-language translations (Theorems 6 & 21)
//!
//! Implements the constructive translations from the proofs in Appendix C
//! and Appendix G.1 of the paper:
//!
//! | direction | module | pattern-preserving? |
//! |-----------|--------|---------------------|
//! | RA\* → Datalog\* | [`ra_to_datalog`](mod@ra_to_datalog) | yes (proof part 1) |
//! | Datalog\* → RA\* | [`datalog_to_ra`](mod@datalog_to_ra) | no — eq. (5) may duplicate positives (Lemma 19) |
//! | Datalog\* → RA\*⊲ | [`datalog_to_ra`](mod@datalog_to_ra) (antijoin mode) | yes (Theorem 21) |
//! | Datalog\* → TRC\* | [`datalog_to_trc`](mod@datalog_to_trc) | yes (proof part 3) |
//! | TRC\* → Datalog\* | [`trc_to_datalog`](mod@trc_to_datalog) | no — safety repairs may add references (cases i/ii, Lemma 20) |
//! | TRC\* ↔ SQL\* | re-exported from `rd-sql` | yes, 1-to-1 (proof part 5) |
//!
//! TRC\* serves as the hub: any fragment query can be carried into any of
//! the other languages by composing these maps, and [`differential`]
//! provides the Theorem 6 checker that evaluates all four translations on
//! (random or exhaustive) databases and compares results.
//!
//! The hub is also how RA and Datalog *run*: [`eval`](mod@eval) compiles
//! every RA expression and every Datalog program into TRC plans, with
//! unions and shared IDBs as materialized views.

pub mod datalog_to_ra;
pub mod datalog_to_trc;
pub mod differential;
pub mod eval;
pub mod ra_to_datalog;
pub mod trc_to_datalog;

pub use datalog_to_ra::{datalog_to_ra, datalog_to_ra_antijoin};
pub use datalog_to_trc::{datalog_to_trc, datalog_to_trc_as};
pub use differential::{check_equivalent_results, FourWay};
pub use eval::{eval_program, eval_ra, lower_program, lower_ra};
pub use ra_to_datalog::ra_to_datalog;
pub use trc_to_datalog::trc_to_datalog;
