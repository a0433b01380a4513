//! # xac-serve
//!
//! A concurrent serving layer over the **xmlac** access-control system
//! ([`xac_core`]): the deployment shape the paper's evaluation implies
//! but never builds — one annotated store answering many requesters at
//! once while guarded updates re-annotate it.
//!
//! The design splits traffic by mutability:
//!
//! * **Reads** are served from an epoch-stamped, immutable
//!   [`AccessSnapshot`](xac_core::AccessSnapshot) published behind an
//!   `Arc`. A read clones the `Arc` (the only locked instant) and
//!   evaluates entirely against frozen state, so throughput scales with
//!   reader threads and a slow re-annotation never blocks a read.
//! * **Guarded writes** serialize behind a writer lock: access check,
//!   update, partial re-annotation (Trigger, §5.3), then publication of
//!   a new snapshot epoch. Readers switch epochs atomically — no read
//!   ever observes a half-re-annotated store.
//! * **Observability**: every request lands in exactly one outcome
//!   counter and one latency-histogram bucket; [`ServeEngine::metrics`]
//!   freezes them into a [`MetricsSnapshot`].
//! * **One entry point**: every consumer — typed in-process callers,
//!   the CLI, and the `xac-net` wire dispatcher — reduces to a
//!   [`Request`] answered by [`ServeEngine::serve`] with a [`Response`]
//!   (role-gated via [`ServeEngine::serve_as`]), so the network layer
//!   is a pure codec over one audited semantics.
//!
//! ```
//! use std::sync::Arc;
//! use xac_serve::{BackendKind, Request, Response, ServeEngine};
//! use xac_policy::policy::hospital_policy;
//!
//! let schema = xac_core::hospital_schema_for_docs();
//! let doc = xac_xml::Document::parse_str(
//!     "<hospital><dept><patients>\
//!      <patient><psn>1</psn><name>a</name></patient>\
//!      </patients><staffinfo/></dept></hospital>").unwrap();
//! let system = xac_core::System::builder(schema, hospital_policy(), doc)
//!     .build().unwrap();
//! let engine = ServeEngine::for_kind(Arc::new(system), BackendKind::Native).unwrap();
//! match engine.serve(&Request::query("//patient/name")) {
//!     Response::Decision { granted, .. } => assert!(granted),
//!     other => panic!("unexpected response: {other:?}"),
//! }
//! assert_eq!(engine.metrics().reads_issued(), 1);
//! ```

pub mod durable;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod request;

pub use durable::{
    split_storage_plan, Durability, DurabilityConfig, LoggedOp, RecoveryReport, SignDiff,
};
pub use engine::{BackendKind, ServeEngine};
pub use faults::seeded_fault_plan;
pub use metrics::{LatencyHistogram, LatencySummary, Metrics, MetricsSnapshot};
pub use request::{ErrorKind, Request, Response, Role};
