//! Quickstart: the paper's motivating example end-to-end.
//!
//! Builds the hospital system (Figure 1 schema, Figure 2 document,
//! Table 1 policy), shows the optimizer reducing the policy to Table 3,
//! annotates all three backends, and answers a few user requests under
//! all-or-nothing semantics.
//!
//! Run with: `cargo run --example quickstart`

use xac_core::{Backend, NativeXmlBackend, RelationalBackend, System, Update};
use xac_policy::policy::hospital_policy;
use xac_xmlgen::{figure2_document, hospital_schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let policy = hospital_policy();
    println!("== Policy (paper Table 1) ==\n{policy}");

    let system = System::builder(hospital_schema(), policy, figure2_document()).build()?;
    println!("== After redundancy elimination (paper Table 3) ==\n{}", system.policy());

    println!("== Annotation query ==");
    println!("{}\n", xac_core::annotator::annotation_query(system.policy()).describe());

    let mut backends: Vec<Box<dyn Backend>> = vec![
        Box::new(RelationalBackend::row()),
        Box::new(RelationalBackend::column()),
        Box::new(NativeXmlBackend::new()),
    ];

    let reference = system.reference_accessible().len();
    println!("reference accessible nodes (Table 2 semantics): {reference}\n");

    for backend in backends.iter_mut() {
        let b = backend.as_mut();
        system.load(b)?;
        let writes = system.annotate(b)?;
        println!(
            "[{}] annotated: {writes} sign writes, {} accessible nodes",
            b.name(),
            b.accessible_count()?
        );
        for query in ["//patient/name", "//patient", "//regular", "//med"] {
            let decision = system.request(b, query)?;
            println!(
                "[{}]   {query:<16} -> {} ({} nodes)",
                b.name(),
                if decision.granted() { "GRANTED" } else { "DENIED" },
                decision.node_count()
            );
        }
    }

    // The paper's §5.3 example: delete the treatments, re-annotate only
    // the triggered scopes, and watch //patient flip to GRANTED.
    println!("\n== Update: delete //patient/treatment ==");
    let update = Update::Delete(xac_xpath::parse("//patient/treatment")?);
    let plan = system.plan_update(update.target());
    println!("triggered rules: {:?}", plan.triggered_ids());
    for backend in backends.iter_mut() {
        let b = backend.as_mut();
        let outcome = system.apply(b, &update)?;
        let decision = system.request(b, "//patient")?;
        println!(
            "[{}] removed {} elements, {} sign writes, //patient -> {}",
            b.name(),
            outcome.removed_elements,
            outcome.sign_writes,
            if decision.granted() { "GRANTED" } else { "DENIED" },
        );
    }
    Ok(())
}
