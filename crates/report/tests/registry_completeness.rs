//! Registry completeness: the one dispatch layer really covers every
//! catalog the repo keeps — Table I rows and the 10-workload profile
//! catalog resolve to registered scenarios, and no registered workload
//! family is orphaned from the paper's catalogs in the reverse
//! direction.

use pvc_arch::System;
use pvc_report::scenarios::registry;
use pvc_scenario::Workload;
use std::collections::BTreeSet;

/// Families registered on any system.
fn registered_families() -> BTreeSet<&'static str> {
    registry().iter().map(|s| s.id().workload.family()).collect()
}

#[test]
fn grid_has_the_expected_size() {
    // 61 standard scenarios + the figure pipeline on both PVC systems.
    assert_eq!(registry().len(), 63);
}

#[test]
fn every_table1_row_resolves_to_registered_scenarios() {
    let families = registered_families();
    for entry in pvc_microbench::catalog::TABLE_I {
        for slug in entry.workloads {
            assert!(
                families.contains(slug),
                "Table I row '{}' binds workload family '{slug}' with no registered scenario",
                entry.name
            );
            // The family has at least one concrete scenario on Aurora.
            assert!(
                registry()
                    .iter()
                    .any(|s| s.id().workload.family() == *slug
                        && s.id().system == System::Aurora),
                "family '{slug}' has no Aurora scenario"
            );
        }
    }
}

#[test]
fn every_profile_name_resolves() {
    let profiles = pvc_report::profile::workloads(System::Aurora);
    assert_eq!(profiles.len(), 10, "the profile catalog is 10 workloads");
    for (name, _) in profiles {
        registry()
            .profile(name, System::Aurora)
            .unwrap_or_else(|e| panic!("profile '{name}': {e}"));
    }
}

#[test]
fn no_registered_family_is_orphaned() {
    // Reverse direction: every registered family is accounted for by a
    // paper catalog — Table I (microbenchmarks), Table V/VI (apps), the
    // fabric section, or the figure pipeline.
    let table1: BTreeSet<&str> = pvc_microbench::catalog::TABLE_I
        .iter()
        .flat_map(|e| e.workloads.iter().copied())
        .collect();
    let apps: BTreeSet<&str> = [
        Workload::MiniBude,
        Workload::CloverLeaf,
        Workload::MiniQmc,
        Workload::MiniGamess,
        Workload::OpenMc,
        Workload::Hacc,
    ]
    .iter()
    .map(|w| w.family())
    .collect();
    for family in registered_families() {
        let accounted = table1.contains(family)
            || apps.contains(family)
            || family == "allreduce" // §IV-A4, fabric model
            || family == "figures"; // Figures 2-4 pipeline
        assert!(accounted, "registered family '{family}' maps to no catalog");
    }
    // And the full workload enum is exercised: nothing declared in
    // pvc-scenario is left unregistered.
    let families = registered_families();
    for w in Workload::ALL {
        assert!(families.contains(w.family()), "workload {w:?} never registered");
    }
}

/// No orphaned chaos dimensions: every fault kind in the published
/// grammar (a) is advertised by a `GRAMMAR` line, and (b) either
/// applies cleanly to, or is typed-rejected by, every system in the
/// registered grid — there is no fault that panics or that no
/// registered scenario could ever exercise.
#[test]
fn every_chaos_dimension_reaches_the_registered_grid() {
    use pvc_arch::chaos::{ChaosSpec, GRAMMAR};

    // One representative spec per fault kind, valid grammar on any PVC
    // node (pcie:1x1 is a downgrade from every real link).
    let representatives = [
        ("xelink", "xelink:0:0.5"),
        ("pcie", "pcie:1x1"),
        ("clock", "clock:0.1"),
        ("stackdown", "stackdown:1"),
        ("hbm", "hbm:0.5"),
    ];
    let mut systems: Vec<System> = Vec::new();
    for s in registry().iter() {
        if !systems.contains(&s.id().system) {
            systems.push(s.id().system);
        }
    }
    assert!(!systems.is_empty());
    for (kind, token) in representatives {
        assert!(
            GRAMMAR.iter().any(|line| line.starts_with(kind)),
            "fault kind '{kind}' missing from the advertised grammar"
        );
        let spec = ChaosSpec::parse(token).expect("representative spec parses");
        assert_eq!(spec.faults().len(), 1);
        assert_eq!(spec.faults()[0].kind(), kind);
        let mut applies_somewhere = false;
        for &system in &systems {
            // Ok or typed rejection; a panic here fails the test.
            applies_somewhere |= spec.apply(system.node()).is_ok();
        }
        assert!(
            applies_somewhere,
            "fault kind '{kind}' applies to no registered system — orphaned dimension"
        );
    }
    // And the reverse direction: the grammar advertises nothing the
    // parser does not recognise.
    for line in GRAMMAR {
        let kind = line.split(':').next().unwrap();
        assert!(
            representatives.iter().any(|(k, _)| *k == kind),
            "grammar line '{line}' names unknown fault kind '{kind}'"
        );
    }
}
