//! # trips-query-lang — TQL, the textual query language
//!
//! The typed [`QueryRequest`] surface is precise but programmatic; analysts
//! and monitoring configs want text. TQL is a small language with two
//! statement forms, compiled by this crate onto the existing typed layers:
//!
//! * **One-shot queries** — `FIND <source> [WHERE …]` compiles to a
//!   [`QueryRequest`] answered by the store's query service;
//! * **Standing rules** — `[RULE "<name>"] WHEN <condition> [FOR <dur>]
//!   ALERT ["<msg>"] [PRIORITY <n>]` compiles to a [`RuleSpec`] registered
//!   with the store's [`RuleEngine`](trips_store::RuleEngine) and
//!   evaluated continuously on the ingest path.
//!
//! The full language reference (grammar, clause catalogue, error-message
//! catalogue, one-shot vs standing semantics) lives in `docs/TQL.md` at
//! the repository root; every fenced TQL snippet in that document is fed
//! through [`parse`] by a test.
//!
//! ## Parsing a one-shot query
//!
//! ```
//! use trips_query_lang::{compile, Compiled};
//! use trips_store::Query;
//!
//! let compiled = compile(r#"FIND flows LIMIT 5 WHERE device "3a.*""#).unwrap();
//! let Compiled::Query(request) = compiled else { panic!("one-shot") };
//! assert_eq!(request.query, Query::TopFlows { limit: 5 });
//! assert_eq!(request.selector.device_pattern.as_deref(), Some("3a.*"));
//! ```
//!
//! ## Compiling a standing rule
//!
//! ```
//! use trips_query_lang::{compile, Compiled};
//! use trips_store::{CmpOp, Condition, RegionSel};
//!
//! let compiled =
//!     compile(r#"RULE "crowded" WHEN occupancy(floor 2) > 50 FOR 5m ALERT PRIORITY 9"#)
//!         .unwrap();
//! let Compiled::Rule(spec) = compiled else { panic!("standing") };
//! assert_eq!(spec.name, "crowded");
//! assert_eq!(spec.priority, 9);
//! assert_eq!(spec.hold_ms, Some(300_000));
//! assert_eq!(
//!     spec.condition,
//!     Condition::Occupancy { region: RegionSel::Floor(2), cmp: CmpOp::Gt, count: 50 }
//! );
//! ```
//!
//! ## Pretty error spans
//!
//! Errors carry byte spans and render caret diagnostics:
//!
//! ```
//! use trips_query_lang::parse;
//!
//! let src = "FIND dwellz";
//! let err = parse(src).unwrap_err();
//! let rendered = err.render(src);
//! assert!(rendered.contains("unknown query source `dwellz`"));
//! assert!(rendered.contains("^^^^^^"));
//! ```
//!
//! ## Canonical form
//!
//! [`Statement`]'s `Display` emits a canonical spelling that re-parses to
//! an equal AST (property-tested), so a registered rule's source can be
//! echoed in server traces without drift:
//!
//! ```
//! use trips_query_lang::parse;
//!
//! let stmt = parse("when device enters region \"lab-*\" alert").unwrap();
//! assert_eq!(stmt.to_string(), r#"WHEN device ENTERS region "lab-*" ALERT"#);
//! assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
mod error;
mod lexer;
mod parser;

pub use ast::{FindStmt, Pred, RuleStmt, Source, Statement};
pub use error::{Span, TqlError};
pub use parser::parse;

use trips_data::Timestamp;
use trips_dsm::RegionId;
use trips_store::{Query, QueryRequest, RuleSpec, SemanticsSelector};

/// `FIND flows` without `LIMIT` compiles to this many top flows.
pub const DEFAULT_FLOW_LIMIT: usize = 10;

/// What a TQL statement compiles to.
#[derive(Debug, Clone, PartialEq)]
pub enum Compiled {
    /// A one-shot query: hand it to the store's query service.
    Query(QueryRequest),
    /// A standing rule: register it with the store's rule engine.
    Rule(RuleSpec),
}

/// Parses and compiles one TQL statement (see [`parse`] and
/// [`compile_statement`]).
pub fn compile(src: &str) -> Result<Compiled, TqlError> {
    Ok(compile_statement(&parse(src)?))
}

/// Compiles a parsed statement. Infallible: every semantic restriction
/// (e.g. `FOR` on an event condition) is rejected by [`parse`], where a
/// source span is still available for the diagnostic.
pub fn compile_statement(stmt: &Statement) -> Compiled {
    match stmt {
        Statement::Find(find) => {
            let mut selector = SemanticsSelector::all();
            for pred in &find.preds {
                selector = match pred {
                    Pred::Device(glob) => selector.with_device_pattern(glob),
                    Pred::Region(id) => selector.with_region(RegionId(*id)),
                    Pred::Event(name) => selector.with_event(name),
                    Pred::Between { from_ms, to_ms } => selector.between(
                        Timestamp::from_millis(*from_ms),
                        Timestamp::from_millis(*to_ms),
                    ),
                };
            }
            let query = match &find.source {
                Source::PopularRegions => Query::PopularRegions,
                Source::Flows { limit } => Query::TopFlows {
                    limit: limit.unwrap_or(DEFAULT_FLOW_LIMIT),
                },
                Source::DwellHistogram { bucket_ms } => Query::DwellHistogram {
                    bucket: trips_data::Duration(*bucket_ms),
                },
                Source::Devices => Query::DeviceSummaries,
                Source::Semantics => Query::Semantics,
                Source::Stats => Query::Stats,
            };
            Compiled::Query(QueryRequest::new(selector, query))
        }
        Statement::Rule(rule) => Compiled::Rule(RuleSpec {
            name: rule.name.clone().unwrap_or_default(),
            priority: rule.priority.unwrap_or(0),
            condition: rule.condition.clone(),
            hold_ms: rule.hold_ms,
            message: rule.message.clone(),
            // The canonical pretty-printing, not the user's raw text: what
            // traces echo must itself re-parse.
            source: stmt.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trips_store::{CmpOp, Condition, RegionSel};

    #[test]
    fn find_compiles_every_source() {
        let cases: &[(&str, Query)] = &[
            ("FIND popular_regions", Query::PopularRegions),
            (
                "FIND flows",
                Query::TopFlows {
                    limit: DEFAULT_FLOW_LIMIT,
                },
            ),
            ("FIND flows LIMIT 3", Query::TopFlows { limit: 3 }),
            (
                "FIND dwell_histogram BUCKET 5m",
                Query::DwellHistogram {
                    bucket: trips_data::Duration(300_000),
                },
            ),
            ("FIND devices", Query::DeviceSummaries),
            ("FIND semantics", Query::Semantics),
            ("FIND stats", Query::Stats),
        ];
        for (src, want) in cases {
            let Compiled::Query(req) = compile(src).unwrap() else {
                panic!("{src}: expected a query");
            };
            assert_eq!(&req.query, want, "{src}");
            assert!(req.selector.is_all(), "{src}");
        }
    }

    #[test]
    fn where_clauses_fill_the_selector() {
        let Compiled::Query(req) = compile(
            r#"FIND semantics WHERE device "3a.*" AND region 5 AND event "stay" AND BETWEEN 0d09:00:00 AND 1d00:00:00"#,
        )
        .unwrap() else {
            panic!("expected a query");
        };
        assert_eq!(req.selector.device_pattern.as_deref(), Some("3a.*"));
        assert_eq!(req.selector.region, Some(RegionId(5)));
        assert_eq!(req.selector.event.as_deref(), Some("stay"));
        let (from, to) = req.selector.range.unwrap();
        assert_eq!(from, Timestamp::from_millis(9 * 3_600_000));
        assert_eq!(to, Timestamp::from_millis(24 * 3_600_000));
    }

    #[test]
    fn rules_compile_with_all_options() {
        let Compiled::Rule(spec) = compile(
            r#"RULE "lab" WHEN device "3a.*" DWELLS IN region "lab-*" >= 30m ALERT "long dwell" PRIORITY 7"#,
        )
        .unwrap() else {
            panic!("expected a rule");
        };
        assert_eq!(spec.name, "lab");
        assert_eq!(spec.priority, 7);
        assert_eq!(spec.message.as_deref(), Some("long dwell"));
        assert_eq!(spec.hold_ms, None);
        assert_eq!(
            spec.condition,
            Condition::Dwells {
                device: Some("3a.*".into()),
                region: RegionSel::Name("lab-*".into()),
                cmp: CmpOp::Ge,
                threshold_ms: 1_800_000,
            }
        );
        // The echoed source is canonical and re-parses to the same rule.
        let reparsed = parse(&spec.source).unwrap();
        assert_eq!(compile_statement(&reparsed), Compiled::Rule(spec));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(parse("find stats").unwrap(), parse("FIND stats").unwrap());
        assert_eq!(
            parse(r#"when flow(region 1 -> region 2) >= 10 alert"#).unwrap(),
            parse(r#"WHEN flow(region 1 -> region 2) >= 10 ALERT"#).unwrap()
        );
    }
}
