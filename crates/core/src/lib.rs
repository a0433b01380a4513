//! # xac-core
//!
//! The **xmlac** system: materialized access control for XML documents
//! over relational and native XML databases, reproducing the architecture
//! of Figure 3 of *"Controlling Access to XML Documents over XML Native
//! and Relational Databases"* (Koromilas et al., SDM 2009).
//!
//! The four modules of the paper's architecture map onto this crate:
//!
//! * [`optimizer`] — removes redundant rules from the policy before
//!   anything touches a database (§5.1);
//! * [`annotator`] — compiles the policy into one annotation query and
//!   drives a storage backend to materialize accessibility signs (§5.2);
//! * [`reannotator`] — when an update hits the document, uses XPath
//!   static analysis (rule expansion + containment + the dependency
//!   graph) to re-annotate only the affected scopes (§5.3);
//! * [`requester`] — the user-facing front end enforcing the paper's
//!   all-or-nothing query answering.
//!
//! Storage backends implement the [`Backend`] trait:
//!
//! * [`RelationalBackend`] over [`xac_reldb`] in row layout — the
//!   PostgreSQL stand-in;
//! * [`RelationalBackend`] over [`xac_reldb`] in column layout — the
//!   MonetDB/SQL stand-in;
//! * [`NativeXmlBackend`] over [`xac_xmlstore`] — the MonetDB/XQuery
//!   stand-in.
//!
//! ```
//! use xac_core::{System, NativeXmlBackend, Backend};
//! use xac_policy::policy::hospital_policy;
//!
//! let schema = xac_core::hospital_schema_for_docs();
//! let doc = xac_xml::Document::parse_str(
//!     "<hospital><dept><patients>\
//!      <patient><psn>1</psn><name>a</name></patient>\
//!      </patients><staffinfo/></dept></hospital>").unwrap();
//! let system = System::builder(schema, hospital_policy(), doc).build().unwrap();
//! let mut backend = NativeXmlBackend::new();
//! system.load(&mut backend).unwrap();
//! system.annotate(&mut backend).unwrap();
//! // The lone patient has no treatment: accessible under R1.
//! let decision = system.request(&mut backend, "//patient").unwrap();
//! assert!(decision.granted());
//! ```

pub mod annotator;
pub mod backend;
pub mod checkpoint;
pub mod document;
pub mod error;
pub mod fault;
pub mod optimizer;
pub mod reannotator;
pub mod requester;
pub mod sign_diff;
pub mod snapshot;
pub mod system;
pub mod timing;
pub mod view;

pub use backend::{AnnotateMode, Backend, NativeXmlBackend, Progress, RelationalBackend, Selection};
pub use checkpoint::Checkpoint;
pub use document::PreparedDocument;
pub use error::{Error, Result};
pub use fault::{
    injected_panic_message, injected_panic_point, FaultAction, FaultPlan, FaultPoint,
    FaultSpec, FaultingBackend,
};
pub use reannotator::ReannotationPlan;
pub use requester::Decision;
pub use sign_diff::SignDiff;
pub use snapshot::AccessSnapshot;
pub use system::{GuardedUpdate, System, SystemBuilder, Update, UpdateOutcome};
pub use timing::time;
pub use view::{security_view, ViewMode};

/// Convenience re-export of the hospital schema used in doctests (the
/// canonical definition lives in `xac-xmlgen`, which this crate cannot
/// depend on outside tests).
pub fn hospital_schema_for_docs() -> xac_xml::Schema {
    use xac_xml::{Occurs::*, Particle, Schema};
    Schema::builder("hospital")
        .sequence("hospital", vec![Particle::new("dept", Plus)])
        .sequence(
            "dept",
            vec![Particle::new("patients", One), Particle::new("staffinfo", One)],
        )
        .sequence("patients", vec![Particle::new("patient", Star)])
        .sequence("staffinfo", vec![Particle::new("staff", Star)])
        .sequence(
            "patient",
            vec![
                Particle::new("psn", One),
                Particle::new("name", One),
                Particle::new("treatment", Optional),
            ],
        )
        .choice(
            "treatment",
            vec![
                Particle::new("regular", Optional),
                Particle::new("experimental", Optional),
            ],
        )
        .sequence("regular", vec![Particle::new("med", One), Particle::new("bill", One)])
        .sequence(
            "experimental",
            vec![Particle::new("test", One), Particle::new("bill", One)],
        )
        .choice("staff", vec![Particle::new("nurse", One), Particle::new("doctor", One)])
        .sequence(
            "nurse",
            vec![
                Particle::new("sid", One),
                Particle::new("name", One),
                Particle::new("phone", One),
            ],
        )
        .sequence(
            "doctor",
            vec![
                Particle::new("sid", One),
                Particle::new("name", One),
                Particle::new("phone", One),
            ],
        )
        .text(&["psn", "name", "med", "bill", "test", "sid", "phone"])
        .build()
        .expect("hospital schema is well-formed")
}
