//! Memory freedom of interference (§3.1 "Memory").
//!
//! "Separate applications need to be executed in separate processes.
//! However, OSs with support for memory separation often require a Memory
//! Management Unit. … Additionally, a large amount of processes might slow
//! down a system. Thus, it is important to define which applications need
//! to run in separate processes and which can be combined in a single
//! process." The [`ProcessManager`] implements that policy:
//!
//! * on an MMU-equipped ECU, apps of different ASIL levels are isolated in
//!   separate process groups; same-ASIL apps may share one group (fewer
//!   processes, per the model's co-location hints);
//! * on an MMU-less ECU everything shares one unprotected group, and
//!   mixing ASIL levels is refused.

use dynplat_common::{AppId, Asil};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of an OS process group on one node.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessGroupId(pub u32);

/// Errors from process-group assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcessError {
    /// Mixing ASIL levels on an MMU-less ECU would break freedom of
    /// interference.
    NoIsolationPossible {
        /// The app that could not be placed.
        app: AppId,
        /// Its ASIL.
        asil: Asil,
        /// The ASIL already resident.
        resident: Asil,
    },
    /// The app is already assigned.
    AlreadyAssigned(AppId),
}

impl fmt::Display for ProcessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcessError::NoIsolationPossible {
                app,
                asil,
                resident,
            } => write!(
                f,
                "cannot place {app} ({asil}) next to {resident} apps without an MMU"
            ),
            ProcessError::AlreadyAssigned(app) => write!(f, "{app} already has a process group"),
        }
    }
}

impl std::error::Error for ProcessError {}

/// Per-node process-group allocator.
#[derive(Clone, Debug)]
pub struct ProcessManager {
    mmu: bool,
    next_group: u32,
    assignment: BTreeMap<AppId, ProcessGroupId>,
    group_asil: BTreeMap<ProcessGroupId, Asil>,
}

impl ProcessManager {
    /// Creates a manager for an ECU with or without an MMU. Same-ASIL apps
    /// share a process group (fewer processes).
    pub fn new(mmu: bool) -> Self {
        ProcessManager {
            mmu,
            next_group: 0,
            assignment: BTreeMap::new(),
            group_asil: BTreeMap::new(),
        }
    }

    /// Assigns a process group to `app` at `asil`.
    ///
    /// # Errors
    ///
    /// [`ProcessError::NoIsolationPossible`] when an MMU-less node already
    /// hosts apps of a different ASIL; [`ProcessError::AlreadyAssigned`]
    /// for duplicates.
    pub fn assign(&mut self, app: AppId, asil: Asil) -> Result<ProcessGroupId, ProcessError> {
        if self.assignment.contains_key(&app) {
            return Err(ProcessError::AlreadyAssigned(app));
        }
        if !self.mmu {
            // One unprotected group; only homogeneous ASIL allowed.
            if let Some((&gid, &resident)) = self.group_asil.iter().next() {
                if resident != asil {
                    return Err(ProcessError::NoIsolationPossible {
                        app,
                        asil,
                        resident,
                    });
                }
                self.assignment.insert(app, gid);
                return Ok(gid);
            }
            let gid = self.fresh_group(asil);
            self.assignment.insert(app, gid);
            return Ok(gid);
        }
        // Reuse a group of the same ASIL when present.
        if let Some((&gid, _)) = self.group_asil.iter().find(|(_, &a)| a == asil) {
            self.assignment.insert(app, gid);
            return Ok(gid);
        }
        let gid = self.fresh_group(asil);
        self.assignment.insert(app, gid);
        Ok(gid)
    }

    /// Releases an app's assignment; empty groups are garbage-collected.
    pub fn release(&mut self, app: AppId) -> bool {
        let Some(gid) = self.assignment.remove(&app) else {
            return false;
        };
        if !self.assignment.values().any(|&g| g == gid) {
            self.group_asil.remove(&gid);
        }
        true
    }

    fn fresh_group(&mut self, asil: Asil) -> ProcessGroupId {
        let gid = ProcessGroupId(self.next_group);
        self.next_group += 1;
        self.group_asil.insert(gid, asil);
        gid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmu_node_separates_asil_levels() {
        let mut pm = ProcessManager::new(true);
        let g1 = pm.assign(AppId(1), Asil::D).unwrap();
        let g2 = pm.assign(AppId(2), Asil::Qm).unwrap();
        let g3 = pm.assign(AppId(3), Asil::D).unwrap();
        assert_ne!(g1, g2);
        assert_eq!(g1, g3, "same ASIL shares a group");
    }

    #[test]
    fn mmu_less_node_refuses_mixed_criticality() {
        let mut pm = ProcessManager::new(false);
        let g1 = pm.assign(AppId(1), Asil::B).unwrap();
        let err = pm.assign(AppId(2), Asil::Qm).unwrap_err();
        assert!(matches!(err, ProcessError::NoIsolationPossible { .. }));
        // Same ASIL is tolerated (single shared group, no isolation).
        let g = pm.assign(AppId(3), Asil::B).unwrap();
        assert_eq!(g, g1);
    }

    #[test]
    fn duplicate_assignment_rejected() {
        let mut pm = ProcessManager::new(true);
        pm.assign(AppId(1), Asil::A).unwrap();
        assert_eq!(
            pm.assign(AppId(1), Asil::A),
            Err(ProcessError::AlreadyAssigned(AppId(1)))
        );
    }

    #[test]
    fn release_garbage_collects_groups() {
        let mut pm = ProcessManager::new(true);
        let g1 = pm.assign(AppId(1), Asil::A).unwrap();
        let g2 = pm.assign(AppId(2), Asil::B).unwrap();
        assert!(pm.release(AppId(1)));
        assert!(!pm.release(AppId(1)));
        // The emptied ASIL A group was collected, so the next ASIL A app
        // opens a fresh group instead of rejoining it.
        let g3 = pm.assign(AppId(3), Asil::A).unwrap();
        assert_ne!(g3, g1);
        assert_ne!(g3, g2);
    }
}
