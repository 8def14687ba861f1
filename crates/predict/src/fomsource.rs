//! Unified access to every Table VI FOM (simulated).

use pvc_arch::System;
use pvc_miniapps::{cloverleaf, minibude, minigamess, miniqmc, ScaleLevel};

/// The six Table V/VI applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppKind {
    MiniBude,
    CloverLeaf,
    MiniQmc,
    MiniGamess,
    OpenMc,
    Hacc,
}

impl AppKind {
    /// All apps in Table VI row order.
    pub const ALL: [AppKind; 6] = [
        AppKind::MiniBude,
        AppKind::CloverLeaf,
        AppKind::MiniQmc,
        AppKind::MiniGamess,
        AppKind::OpenMc,
        AppKind::Hacc,
    ];

    /// The four mini-apps (Figures 2–4 cover only these).
    pub const MINIAPPS: [AppKind; 4] = [
        AppKind::MiniBude,
        AppKind::CloverLeaf,
        AppKind::MiniQmc,
        AppKind::MiniGamess,
    ];

    /// Row label as printed in Table VI.
    pub fn label(self) -> &'static str {
        match self {
            AppKind::MiniBude => "miniBUDE",
            AppKind::CloverLeaf => "CloverLeaf",
            AppKind::MiniQmc => "miniQMC",
            AppKind::MiniGamess => "mini-GAMESS",
            AppKind::OpenMc => "OpenMC",
            AppKind::Hacc => "HACC",
        }
    }
}

/// Whether a Table VI cell has a value: a declared fact of the paper,
/// never computed from a model. Every dash has its reason:
///
/// * miniBUDE is not an MPI application (§V-B1), so it has no
///   full-node value.
/// * mini-GAMESS failed to build with the AMD Fortran compiler (§V-B3),
///   so it has no MI250 value at any level.
/// * OpenMC and HACC are run only on the full node (§VI-B), so they
///   have no one-stack or one-GPU value.
///
/// Every other cell has a value. [`fom`] returns `None` exactly where
/// this is false, and the scenario registry reads it to choose each
/// app's headline level without evaluating any model.
pub fn has_fom(app: AppKind, system: System, level: ScaleLevel) -> bool {
    match app {
        AppKind::MiniBude => level != ScaleLevel::FullNode,
        AppKind::MiniGamess => system != System::JlseMi250,
        AppKind::OpenMc | AppKind::Hacc => level == ScaleLevel::FullNode,
        AppKind::CloverLeaf | AppKind::MiniQmc => true,
    }
}

/// Simulated FOM for one Table VI cell; `None` where [`has_fom`]
/// declares a dash.
pub fn fom(app: AppKind, system: System, level: ScaleLevel) -> Option<f64> {
    if !has_fom(app, system, level) {
        return None;
    }
    match app {
        AppKind::MiniBude => minibude::fom(system, level),
        AppKind::CloverLeaf => cloverleaf::fom(system, level),
        AppKind::MiniQmc => miniqmc::fom(system, level),
        AppKind::MiniGamess => minigamess::fom(system, level),
        AppKind::OpenMc => Some(pvc_apps::openmc::fom_node(system)),
        AppKind::Hacc => Some(pvc_apps::hacc::fom_node(system)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_miniapps_have_stack_foms_on_pvc() {
        for app in AppKind::MINIAPPS {
            for sys in System::PVC {
                assert!(
                    fom(app, sys, ScaleLevel::OneStack).is_some(),
                    "{app:?} on {sys:?}"
                );
            }
        }
    }

    #[test]
    fn applications_are_node_level_only() {
        for app in [AppKind::OpenMc, AppKind::Hacc] {
            assert!(fom(app, System::Aurora, ScaleLevel::OneStack).is_none());
            assert!(fom(app, System::Aurora, ScaleLevel::FullNode).is_some());
        }
    }

    /// The declared availability agrees with the models on all 72
    /// cells, and with each mini-app's own dashes.
    #[test]
    fn declared_availability_matches_every_model_cell() {
        let mut cells = 0;
        for app in AppKind::ALL {
            for sys in System::ALL {
                for level in ScaleLevel::ALL {
                    let declared = has_fom(app, sys, level);
                    assert_eq!(
                        declared,
                        fom(app, sys, level).is_some(),
                        "{app:?} {sys:?} {level:?}"
                    );
                    cells += 1;
                    let own = match app {
                        AppKind::MiniBude => minibude::fom(sys, level),
                        AppKind::CloverLeaf => cloverleaf::fom(sys, level),
                        AppKind::MiniQmc => miniqmc::fom(sys, level),
                        AppKind::MiniGamess => minigamess::fom(sys, level),
                        AppKind::OpenMc | AppKind::Hacc => continue,
                    };
                    assert_eq!(declared, own.is_some(), "{app:?} {sys:?} {level:?}");
                }
            }
        }
        assert_eq!(cells, 72);
    }

    #[test]
    fn table_vi_dashes_reproduced() {
        // mini-GAMESS on MI250 failed to build (§V-B3).
        assert!(fom(AppKind::MiniGamess, System::JlseMi250, ScaleLevel::OneStack).is_none());
        // miniBUDE has no full-node value (not MPI).
        assert!(fom(AppKind::MiniBude, System::Aurora, ScaleLevel::FullNode).is_none());
    }
}
