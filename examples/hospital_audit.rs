//! Hospital audit: a larger generated hospital under the paper's policy.
//!
//! Generates a multi-department hospital document, annotates it, audits
//! per-rule scopes and the resulting accessibility breakdown, and shows
//! how a targeted update (a patient finishing treatment) ripples through
//! re-annotation.
//!
//! Run with: `cargo run --example hospital_audit`

use xac_core::{Backend, NativeXmlBackend, System, Update};
use xac_policy::policy::hospital_policy;
use xac_xmlgen::{hospital_document, hospital_schema};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = hospital_document(4, 250, 2026);
    println!(
        "generated hospital: {} departments, {} elements, {} patients",
        4,
        doc.element_count(),
        xac_xpath::eval(&doc, &xac_xpath::parse("//patient")?).len()
    );

    let system = System::builder(hospital_schema(), hospital_policy(), doc).build()?;

    // Per-rule scope audit on the reference tree.
    println!("\n== Rule scopes ==");
    let report = xac_policy::analyze(&system.prepared().doc, system.policy());
    for (rule, stats) in system.policy().rules.iter().zip(&report.rules) {
        println!(
            "  {:<4} {:<5} {:<35} {:>6} nodes ({} exclusive)",
            stats.id,
            stats.effect.to_string(),
            rule.resource.to_string(),
            stats.scope,
            stats.exclusive
        );
    }
    println!(
        "  ({} conflicted, {} defaulted, coverage {:.1}%)",
        report.conflicted,
        report.defaulted,
        100.0 * report.coverage()
    );

    let mut backend = NativeXmlBackend::new();
    system.load(&mut backend)?;
    let writes = system.annotate(&mut backend)?;
    let accessible = backend.accessible_count()?;
    let total = system.prepared().doc.element_count();
    println!(
        "\nannotated: {writes} writes, {accessible}/{total} nodes accessible ({:.1}%)",
        100.0 * accessible as f64 / total as f64
    );

    // Access review: what can the requester see?
    println!("\n== Requests ==");
    for query in [
        "//patient/name",
        "//patient",
        "//patient[treatment]",
        "//regular",
        "//experimental",
        "//staff",
        "//nurse/phone",
    ] {
        let d = system.request(&mut backend, query)?;
        println!(
            "  {query:<24} {} ({} nodes)",
            if d.granted() { "GRANTED" } else { "DENIED " },
            d.node_count()
        );
    }

    // A ward clears all experimental treatments: affected rules and the
    // partial re-annotation cost.
    println!("\n== Update: delete //treatment[experimental] ==");
    let update = Update::Delete(xac_xpath::parse("//treatment[experimental]")?);
    let plan = system.plan_update(update.target());
    println!("  triggered rules: {:?}", plan.triggered_ids());
    let outcome = system.apply(&mut backend, &update)?;
    println!(
        "  removed {} elements; partial re-annotation wrote {} signs",
        outcome.removed_elements, outcome.sign_writes
    );
    let accessible_after = backend.accessible_count()?;
    println!(
        "  accessible nodes: {accessible} -> {accessible_after} \
         (ex-experimental patients regained access)"
    );

    // Cross-check against a full re-annotation from scratch.
    let full = system.full_reannotate(&mut backend)?;
    let accessible_full = backend.accessible_count()?;
    println!(
        "  full re-annotation wrote {full} signs; accessible stays {accessible_full}"
    );
    assert_eq!(accessible_after, accessible_full, "partial must match full");
    Ok(())
}
