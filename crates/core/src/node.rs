//! One platform node per ECU.
//!
//! A [`PlatformNode`] enforces local freedom of interference when hosting
//! applications: memory accounting against the ECU's RAM, process-group
//! isolation (§3.1 "Memory"), and CPU admission control for deterministic
//! applications (§3.1 "CPU"); non-deterministic apps bypass the RTA and are
//! expected to run inside the node's budget server.

use crate::app::{AppManifest, LifecycleState};
use crate::process::{ProcessError, ProcessManager};
use dynplat_common::{AppId, InstanceId, TaskId};
use dynplat_hw::EcuSpec;
use dynplat_monitor::{FaultRecorder, MonitorSpec, TaskMonitor};
use dynplat_sched::admission::{AdmissionController, AdmissionError};
use dynplat_sched::server::{PeriodicServer, ServerAnalysis};
use dynplat_sched::task::{TaskSet, TaskSpec};
use std::collections::BTreeMap;
use std::fmt;

/// Errors raised by node-local operations.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeError {
    /// Instance id not hosted here.
    UnknownInstance(InstanceId),
    /// Illegal lifecycle transition.
    BadTransition {
        /// Current state.
        from: LifecycleState,
        /// Requested state.
        to: LifecycleState,
    },
    /// RAM exhausted.
    OutOfMemory {
        /// Requested KiB.
        requested: u32,
        /// Available KiB.
        available: u32,
    },
    /// The admission test rejected the app's task.
    AdmissionRejected {
        /// Reason from the controller.
        reason: String,
    },
    /// Internal admission bookkeeping error.
    Admission(AdmissionError),
    /// Process-group assignment failed.
    Process(ProcessError),
    /// App needs a GPU, the ECU has none.
    MissingGpu(AppId),
    /// The same app is already running here (use the updater instead).
    AlreadyHosted(AppId),
}

impl fmt::Display for NodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeError::UnknownInstance(i) => write!(f, "unknown instance {i}"),
            NodeError::BadTransition { from, to } => {
                write!(f, "illegal lifecycle transition {from} -> {to}")
            }
            NodeError::OutOfMemory {
                requested,
                available,
            } => {
                write!(
                    f,
                    "out of memory: need {requested} KiB, {available} KiB free"
                )
            }
            NodeError::AdmissionRejected { reason } => write!(f, "admission rejected: {reason}"),
            NodeError::Admission(e) => write!(f, "admission bookkeeping: {e}"),
            NodeError::Process(e) => write!(f, "process isolation: {e}"),
            NodeError::MissingGpu(app) => write!(f, "{app} needs a GPU"),
            NodeError::AlreadyHosted(app) => write!(f, "{app} already hosted on this node"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ProcessError> for NodeError {
    fn from(e: ProcessError) -> Self {
        NodeError::Process(e)
    }
}

impl From<AdmissionError> for NodeError {
    fn from(e: AdmissionError) -> Self {
        NodeError::Admission(e)
    }
}

/// A hosted application instance.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Manifest the instance was created from.
    pub manifest: AppManifest,
    /// Current lifecycle state.
    pub state: LifecycleState,
}

/// The platform runtime on one ECU.
#[derive(Debug)]
pub struct PlatformNode {
    ecu: EcuSpec,
    admission: AdmissionController,
    processes: ProcessManager,
    instances: BTreeMap<InstanceId, Instance>,
    monitors: BTreeMap<InstanceId, TaskMonitor>,
    faults: FaultRecorder,
    next_instance: u64,
    memory_used_kib: u32,
    nda_server: Option<PeriodicServer>,
}

impl PlatformNode {
    /// Creates a node on `ecu`.
    pub fn new(ecu: EcuSpec) -> Self {
        let processes = ProcessManager::new(ecu.has_mmu());
        // Seed the instance counter with the ECU id so instance ids are
        // unique across the whole platform (redundancy groups and update
        // orchestration key replicas by instance id).
        let next_instance = u64::from(ecu.id().raw()) << 32;
        PlatformNode {
            ecu,
            admission: AdmissionController::new(),
            processes,
            instances: BTreeMap::new(),
            monitors: BTreeMap::new(),
            faults: FaultRecorder::default(),
            next_instance,
            memory_used_kib: 0,
            nda_server: None,
        }
    }

    /// Configures a budget server for non-deterministic load (§3.1 / the
    /// compositional admission of the paper's reference \[6\]): the server's
    /// budget is reserved in the deterministic schedule as a host task, and
    /// NDA apps are admitted against the server's supply bound function
    /// instead of running unaccounted.
    ///
    /// # Errors
    ///
    /// [`NodeError::AdmissionRejected`] when the deterministic side cannot
    /// spare the server's budget.
    pub fn configure_nda_server(&mut self, server: PeriodicServer) -> Result<(), NodeError> {
        if self.nda_server.is_some() {
            return Err(NodeError::AdmissionRejected {
                reason: "an NDA server is already configured".to_owned(),
            });
        }
        let host_task = server.as_host_task(TaskId(u32::MAX), "nda-server");
        let decision = self.admission.try_admit(host_task)?;
        if !decision.admitted {
            return Err(NodeError::AdmissionRejected {
                reason: format!("no room for the NDA server budget: {}", decision.reason),
            });
        }
        self.nda_server = Some(server);
        Ok(())
    }

    /// The configured NDA server, if any.
    pub fn nda_server(&self) -> Option<PeriodicServer> {
        self.nda_server
    }

    /// The current NDA child task set (one task per serving NDA instance).
    fn nda_child_set(&self) -> TaskSet {
        self.instances
            .iter()
            .filter(|(_, i)| {
                !i.manifest.kind().is_deterministic()
                    && i.state != LifecycleState::Stopped
                    && i.state != LifecycleState::Failed
            })
            .map(|(id, i)| {
                let wcet = i
                    .manifest
                    .model
                    .wcet_on(self.ecu.cpu())
                    .max(dynplat_common::time::SimDuration::from_nanos(1))
                    .min(i.manifest.period());
                TaskSpec::periodic(
                    TaskId(id.raw() as u32),
                    i.manifest.model.name.clone(),
                    i.manifest.period(),
                    wcet,
                )
            })
            .collect()
    }

    /// The underlying ECU.
    pub fn ecu(&self) -> &EcuSpec {
        &self.ecu
    }

    /// Memory currently committed, KiB.
    pub fn memory_used_kib(&self) -> u32 {
        self.memory_used_kib
    }

    /// Free memory, KiB.
    pub fn memory_free_kib(&self) -> u32 {
        self.ecu.ram_kib().saturating_sub(self.memory_used_kib)
    }

    /// Admitted deterministic CPU utilization.
    pub fn utilization(&self) -> f64 {
        self.admission.admitted().utilization()
    }

    /// The node's fault recorder.
    pub fn faults(&self) -> &FaultRecorder {
        &self.faults
    }

    /// All hosted instances.
    pub fn instances(&self) -> impl Iterator<Item = (InstanceId, &Instance)> {
        self.instances.iter().map(|(k, v)| (*k, v))
    }

    /// Looks up an instance.
    pub fn instance(&self, id: InstanceId) -> Option<&Instance> {
        self.instances.get(&id)
    }

    /// Serving instances of one application (normally one; two during a
    /// staged update).
    pub fn serving_instances_of(&self, app: AppId) -> Vec<InstanceId> {
        self.instances
            .iter()
            .filter(|(_, i)| i.manifest.id() == app && i.state.is_serving())
            .map(|(id, _)| *id)
            .collect()
    }

    /// Whether `app` is hosted here in any non-stopped state.
    pub fn hosts(&self, app: AppId) -> bool {
        self.instances
            .values()
            .any(|i| i.manifest.id() == app && i.state != LifecycleState::Stopped)
    }

    /// Monitor of an instance.
    pub fn monitor(&self, id: InstanceId) -> Option<&TaskMonitor> {
        self.monitors.get(&id)
    }

    /// Mutable monitor of an instance.
    pub fn monitor_mut(&mut self, id: InstanceId) -> Option<&mut TaskMonitor> {
        self.monitors.get_mut(&id)
    }

    /// Installs `manifest` as a new instance in [`LifecycleState::Installed`].
    ///
    /// Runs all freedom-of-interference gates: memory, GPU, process group
    /// and — for deterministic apps — CPU admission (§3.1).
    ///
    /// Set `allow_second_instance` during staged updates and for redundancy
    /// groups; otherwise a second instance of a hosted app is refused.
    ///
    /// # Errors
    ///
    /// Any [`NodeError`] gate failure; the node state is unchanged on error.
    pub fn install(
        &mut self,
        manifest: AppManifest,
        allow_second_instance: bool,
    ) -> Result<InstanceId, NodeError> {
        if !allow_second_instance && self.hosts(manifest.id()) {
            return Err(NodeError::AlreadyHosted(manifest.id()));
        }
        if manifest.memory_kib() > self.memory_free_kib() {
            return Err(NodeError::OutOfMemory {
                requested: manifest.memory_kib(),
                available: self.memory_free_kib(),
            });
        }
        if manifest.model.needs_gpu && !self.ecu.has_gpu() {
            return Err(NodeError::MissingGpu(manifest.id()));
        }
        let instance = InstanceId(self.next_instance);
        // Task admission first (it can fail legitimately), then process
        // group (roll back admission on failure).
        let wcet = manifest
            .model
            .wcet_on(self.ecu.cpu())
            .max(dynplat_common::time::SimDuration::from_nanos(1));
        if wcet > manifest.period() {
            return Err(NodeError::AdmissionRejected {
                reason: format!(
                    "WCET {wcet} exceeds period {} on this CPU",
                    manifest.period()
                ),
            });
        }
        if manifest.kind().is_deterministic() {
            let task = TaskSpec::periodic(
                TaskId(instance.raw() as u32),
                manifest.model.name.clone(),
                manifest.period(),
                wcet,
            );
            let decision = self.admission.try_admit(task)?;
            if !decision.admitted {
                return Err(NodeError::AdmissionRejected {
                    reason: decision.reason,
                });
            }
        } else if let Some(server) = self.nda_server {
            // Compositional NDA admission: current NDA children + the new
            // task must fit the server's supply bound.
            let mut child = self.nda_child_set();
            child.push(TaskSpec::periodic(
                TaskId(instance.raw() as u32),
                manifest.model.name.clone(),
                manifest.period(),
                wcet,
            ));
            if !ServerAnalysis::new(server).admits(&child) {
                return Err(NodeError::AdmissionRejected {
                    reason: format!(
                        "NDA server ({} / {}) cannot supply the child set",
                        server.budget, server.period
                    ),
                });
            }
        }
        match self.processes.assign(manifest.id(), manifest.asil()) {
            Ok(_) => {}
            Err(ProcessError::AlreadyAssigned(_)) if allow_second_instance => {
                // Second instance of the same app shares the process group.
            }
            Err(e) => {
                if manifest.kind().is_deterministic() {
                    let _ = self.admission.release(TaskId(instance.raw() as u32));
                }
                return Err(e.into());
            }
        }
        self.next_instance += 1;
        self.memory_used_kib += manifest.memory_kib();
        let spec = MonitorSpec::new(
            TaskId(instance.raw() as u32),
            manifest.period(),
            manifest.period(), // implicit deadline
            u64::from(manifest.memory_kib()) * 1024,
        );
        self.monitors.insert(instance, TaskMonitor::new(spec));
        self.instances.insert(
            instance,
            Instance {
                manifest,
                state: LifecycleState::Installed,
            },
        );
        Ok(instance)
    }

    /// Transitions an instance's lifecycle state.
    ///
    /// # Errors
    ///
    /// [`NodeError::UnknownInstance`] or [`NodeError::BadTransition`].
    pub fn transition(&mut self, id: InstanceId, to: LifecycleState) -> Result<(), NodeError> {
        let inst = self
            .instances
            .get_mut(&id)
            .ok_or(NodeError::UnknownInstance(id))?;
        if !inst.state.can_transition_to(to) {
            return Err(NodeError::BadTransition {
                from: inst.state,
                to,
            });
        }
        inst.state = to;
        if to == LifecycleState::Stopped {
            let manifest = inst.manifest.clone();
            self.memory_used_kib -= manifest.memory_kib();
            if manifest.kind().is_deterministic() {
                let _ = self.admission.release(TaskId(id.raw() as u32));
            }
            // Release the process group only when no other live instance of
            // the app remains.
            let others = self.instances.iter().any(|(other, i)| {
                *other != id
                    && i.manifest.id() == manifest.id()
                    && i.state != LifecycleState::Stopped
            });
            if !others {
                self.processes.release(manifest.id());
            }
            self.monitors.remove(&id);
        }
        Ok(())
    }

    /// Convenience: install → starting → running in one call.
    ///
    /// # Errors
    ///
    /// Forwards [`PlatformNode::install`]/[`PlatformNode::transition`] errors.
    pub fn launch(&mut self, manifest: AppManifest) -> Result<InstanceId, NodeError> {
        let id = self.install(manifest, false)?;
        self.transition(id, LifecycleState::Starting)?;
        self.transition(id, LifecycleState::Running)?;
        Ok(id)
    }

    /// The process manager (isolation queries).
    pub fn processes(&self) -> &ProcessManager {
        &self.processes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppManifest;
    use dynplat_common::time::SimDuration;
    use dynplat_common::{AppKind, Asil, EcuId};
    use dynplat_hw::ecu::EcuClass;
    use dynplat_model::ir::AppModel;
    use dynplat_security::package::Version;

    fn manifest(id: u32, work_mi: f64, mem_kib: u32) -> AppManifest {
        AppManifest::new(
            AppModel {
                id: AppId(id),
                name: format!("app{id}"),
                kind: AppKind::Deterministic,
                asil: Asil::B,
                provides: vec![],
                consumes: vec![],
                period: SimDuration::from_millis(10),
                work_mi,
                memory_kib: mem_kib,
                needs_gpu: false,
            },
            Version::new(1, 0, 0),
            [0; 32],
        )
    }

    fn domain_node() -> PlatformNode {
        PlatformNode::new(EcuSpec::of_class(EcuId(1), "node", EcuClass::Domain))
    }

    #[test]
    fn launch_reaches_running() {
        let mut node = domain_node();
        let id = node.launch(manifest(1, 1.0, 256)).unwrap();
        assert_eq!(node.instance(id).unwrap().state, LifecycleState::Running);
        assert_eq!(node.memory_used_kib(), 256);
        assert!(node.utilization() > 0.0);
        assert!(node.hosts(AppId(1)));
        assert_eq!(node.serving_instances_of(AppId(1)), vec![id]);
        assert!(node.monitor(id).is_some());
    }

    #[test]
    fn memory_gate() {
        let mut node = domain_node();
        let big = manifest(1, 1.0, node.ecu().ram_kib() + 1);
        assert!(matches!(
            node.install(big, false),
            Err(NodeError::OutOfMemory { .. })
        ));
        assert_eq!(node.memory_used_kib(), 0);
    }

    #[test]
    fn cpu_admission_gate() {
        let mut node = domain_node();
        // Domain ECU: 1200 MIPS. 6 MI per 10 ms = 50% each; third fails RTA.
        node.launch(manifest(1, 6.0, 64)).unwrap();
        node.launch(manifest(2, 6.0, 64)).unwrap();
        let err = node.launch(manifest(3, 6.0, 64)).unwrap_err();
        assert!(matches!(err, NodeError::AdmissionRejected { .. }));
        // Failed install must not leak memory or process groups.
        assert_eq!(node.memory_used_kib(), 128);
        assert!(!node.hosts(AppId(3)));
    }

    #[test]
    fn wcet_beyond_period_rejected_on_slow_cpu() {
        let mut node = PlatformNode::new(EcuSpec::of_class(EcuId(0), "weak", EcuClass::LowEnd));
        // 160 MIPS * 10 ms = 1.6 MI budget; ask for 5 MI.
        let err = node.launch(manifest(1, 5.0, 64)).unwrap_err();
        assert!(matches!(err, NodeError::AdmissionRejected { .. }));
    }

    #[test]
    fn duplicate_app_needs_explicit_second_instance() {
        let mut node = domain_node();
        node.launch(manifest(1, 1.0, 64)).unwrap();
        assert!(matches!(
            node.install(manifest(1, 1.0, 64), false),
            Err(NodeError::AlreadyHosted(_))
        ));
        // Staged updates pass allow_second_instance = true.
        let second = node.install(manifest(1, 1.0, 64), true).unwrap();
        assert_eq!(
            node.instance(second).unwrap().state,
            LifecycleState::Installed
        );
    }

    #[test]
    fn stop_releases_resources() {
        let mut node = domain_node();
        let id = node.launch(manifest(1, 6.0, 256)).unwrap();
        let u = node.utilization();
        node.transition(id, LifecycleState::Stopping).unwrap();
        node.transition(id, LifecycleState::Stopped).unwrap();
        assert_eq!(node.memory_used_kib(), 0);
        assert!(node.utilization() < u);
        assert!(!node.hosts(AppId(1)));
        assert!(node.monitor(id).is_none());
        // Capacity is reusable.
        node.launch(manifest(2, 6.0, 256)).unwrap();
    }

    #[test]
    fn illegal_transition_reported() {
        let mut node = domain_node();
        let id = node.install(manifest(1, 1.0, 64), false).unwrap();
        let err = node.transition(id, LifecycleState::Running).unwrap_err();
        assert!(matches!(err, NodeError::BadTransition { .. }));
        assert!(matches!(
            node.transition(InstanceId(99), LifecycleState::Starting),
            Err(NodeError::UnknownInstance(_))
        ));
    }

    #[test]
    fn gpu_gate() {
        let mut node = domain_node(); // Domain class has no GPU
        let mut m = manifest(1, 1.0, 64);
        m.model.needs_gpu = true;
        assert!(matches!(
            node.install(m, false),
            Err(NodeError::MissingGpu(_))
        ));
    }

    #[test]
    fn nda_server_reserves_budget_and_gates_nda_admission() {
        use dynplat_sched::server::PeriodicServer;
        let mut node = domain_node();
        // Reserve 40% of the CPU for NDA work: 4 ms per 10 ms.
        let server = PeriodicServer::new(SimDuration::from_millis(4), SimDuration::from_millis(10));
        node.configure_nda_server(server).unwrap();
        assert!(node.nda_server().is_some());
        assert!(
            (node.utilization() - 0.4).abs() < 1e-9,
            "budget reserved as host task"
        );
        // Duplicate configuration refused.
        assert!(node.configure_nda_server(server).is_err());

        let nda = |id: u32, work: f64| {
            let mut m = manifest(id, work, 64);
            m.model.kind = dynplat_common::AppKind::NonDeterministic;
            m.model.period = SimDuration::from_millis(100);
            m
        };
        // 24 MI per 100 ms on 1200 MIPS = 20 ms = 20% bandwidth each.
        node.launch(nda(10, 24.0)).unwrap();
        let u_after_first = node.utilization();
        node.launch(nda(11, 12.0)).unwrap();
        // Third NDA app exceeds the 40% server bandwidth: refused.
        let err = node.launch(nda(12, 24.0)).unwrap_err();
        assert!(
            matches!(err, NodeError::AdmissionRejected { .. }),
            "{err:?}"
        );
        // NDA admission never touched the deterministic utilization.
        assert_eq!(node.utilization(), u_after_first);
        // Deterministic apps still admit against the remaining 60%.
        node.launch(manifest(1, 6.0, 64)).unwrap();
    }

    #[test]
    fn without_a_server_nda_apps_are_unaccounted_but_memory_gated() {
        let mut node = domain_node();
        let mut m = manifest(1, 1.0, 64);
        m.model.kind = dynplat_common::AppKind::NonDeterministic;
        node.launch(m).unwrap();
        assert_eq!(node.utilization(), 0.0, "no deterministic reservation");
    }

    #[test]
    fn server_budget_is_refused_on_a_full_node() {
        use dynplat_sched::server::PeriodicServer;
        let mut node = domain_node();
        node.launch(manifest(1, 6.0, 64)).unwrap(); // 50%
        node.launch(manifest(2, 6.0, 64)).unwrap(); // 100%
        let server = PeriodicServer::new(SimDuration::from_millis(2), SimDuration::from_millis(10));
        assert!(matches!(
            node.configure_nda_server(server),
            Err(NodeError::AdmissionRejected { .. })
        ));
        assert!(node.nda_server().is_none());
    }

    #[test]
    fn mixed_asil_on_mmu_less_node_rejected() {
        let mut node = PlatformNode::new(EcuSpec::of_class(EcuId(0), "weak", EcuClass::LowEnd));
        let mut a = manifest(1, 0.5, 64);
        a.model.asil = Asil::B;
        let mut b = manifest(2, 0.5, 64);
        b.model.asil = Asil::Qm;
        node.launch(a).unwrap();
        let err = node.launch(b).unwrap_err();
        assert!(matches!(err, NodeError::Process(_)));
    }
}
