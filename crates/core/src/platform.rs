//! The multi-node dynamic platform.
//!
//! Integrates the substrates into the runtime of Fig. 2: signed package
//! installation (§4.1) with update-master delegation for crypto-less ECUs,
//! per-node freedom-of-interference gates, service discovery offers and
//! subscriptions, and authorized service binding (§4.2).

use crate::app::{AppManifest, LifecycleState};
use crate::node::{NodeError, PlatformNode};
use dynplat_comm::sd::{OfferState, SdEntry, ServiceDirectory};
use dynplat_common::ids::ServiceInstance;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppId, EcuId, InstanceId, ServiceId};
use dynplat_hw::EcuSpec;
use dynplat_model::ir::{AppModel, PortKind};
use dynplat_security::authz::{AccessControlMatrix, Permission};
use dynplat_security::master::VoucherIssuer;
use dynplat_security::package::{InstallGate, KeyRegistry, PackageError, SignedPackage, Version};
use dynplat_security::sha256::sha256;
use std::collections::BTreeMap;
use std::fmt;

/// Default TTL for offers and subscriptions issued by the platform.
pub const DEFAULT_SD_TTL: SimDuration = SimDuration::from_secs(5);

/// Errors of platform-level operations.
#[derive(Clone, Debug, PartialEq)]
pub enum PlatformError {
    /// The target ECU is not part of the platform.
    UnknownEcu(EcuId),
    /// A node-local gate failed.
    Node(NodeError),
    /// Package verification failed.
    Package(PackageError),
    /// A crypto-less ECU has no update master to delegate verification to.
    NoUpdateMaster(EcuId),
    /// The client is not authorized for the requested binding (§4.2).
    Unauthorized {
        /// Requesting client.
        client: AppId,
        /// Target service.
        service: ServiceId,
    },
    /// No live offer for the requested service.
    NoOffer(ServiceId),
    /// The app is not hosted anywhere on the platform.
    UnknownApp(AppId),
}

impl fmt::Display for PlatformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlatformError::UnknownEcu(e) => write!(f, "unknown ECU {e}"),
            PlatformError::Node(e) => write!(f, "node: {e}"),
            PlatformError::Package(e) => write!(f, "package: {e}"),
            PlatformError::NoUpdateMaster(e) => {
                write!(
                    f,
                    "{e} cannot verify packages and no update master is configured"
                )
            }
            PlatformError::Unauthorized { client, service } => {
                write!(f, "{client} is not authorized on {service}")
            }
            PlatformError::NoOffer(s) => write!(f, "no live offer for {s}"),
            PlatformError::UnknownApp(a) => write!(f, "{a} is not hosted on this platform"),
        }
    }
}

impl std::error::Error for PlatformError {}

impl From<NodeError> for PlatformError {
    fn from(e: NodeError) -> Self {
        PlatformError::Node(e)
    }
}

impl From<PackageError> for PlatformError {
    fn from(e: PackageError) -> Self {
        PlatformError::Package(e)
    }
}

/// The dynamic platform spanning multiple ECUs.
#[derive(Debug)]
pub struct DynamicPlatform {
    nodes: BTreeMap<EcuId, PlatformNode>,
    directory: ServiceDirectory,
    matrix: AccessControlMatrix,
    registry: KeyRegistry,
    gate: InstallGate,
    master: Option<VoucherIssuer>,
}

impl DynamicPlatform {
    /// Creates an empty platform trusting `registry` for package signatures.
    pub fn new(registry: KeyRegistry) -> Self {
        DynamicPlatform {
            nodes: BTreeMap::new(),
            directory: ServiceDirectory::new(),
            matrix: AccessControlMatrix::new(),
            registry,
            gate: InstallGate::new(),
            master: None,
        }
    }

    /// Adds a node for `ecu`.
    pub fn add_node(&mut self, ecu: EcuSpec) {
        self.nodes.insert(ecu.id(), PlatformNode::new(ecu));
    }

    /// Configures the update master that verifies packages for crypto-less
    /// ECUs (§4.1).
    pub fn set_update_master(&mut self, master: VoucherIssuer) {
        self.master = Some(master);
    }

    /// Installs the platform-wide access-control matrix (generated from the
    /// model, §4.2).
    pub fn set_access_matrix(&mut self, matrix: AccessControlMatrix) {
        self.matrix = matrix;
    }

    /// Runtime permission adjustment (merges a permission pack).
    pub fn merge_permissions(&mut self, extra: &AccessControlMatrix) {
        self.matrix.merge(extra);
    }

    /// The platform-wide service directory.
    pub fn directory(&self) -> &ServiceDirectory {
        &self.directory
    }

    /// Access to one node.
    pub fn node(&self, ecu: EcuId) -> Option<&PlatformNode> {
        self.nodes.get(&ecu)
    }

    /// Mutable access to one node.
    pub fn node_mut(&mut self, ecu: EcuId) -> Option<&mut PlatformNode> {
        self.nodes.get_mut(&ecu)
    }

    /// All nodes.
    pub fn nodes(&self) -> impl Iterator<Item = (EcuId, &PlatformNode)> {
        self.nodes.iter().map(|(k, v)| (*k, v))
    }

    /// Verifies `signed` for installation on `ecu`, honoring the ECU's
    /// crypto capability: capable ECUs verify locally through the install
    /// gate (with rollback protection); crypto-less ECUs delegate to the
    /// update master.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Package`] on any verification failure,
    /// [`PlatformError::NoUpdateMaster`] when delegation is impossible.
    pub fn verify_package(
        &mut self,
        ecu: EcuId,
        signed: &SignedPackage,
    ) -> Result<(Version, [u8; 32]), PlatformError> {
        let node = self.nodes.get(&ecu).ok_or(PlatformError::UnknownEcu(ecu))?;
        let digest = sha256(&signed.package_bytes);
        if node.ecu().crypto().can_verify() {
            let package = self.gate.accept(signed, &self.registry)?;
            Ok((package.version, digest))
        } else {
            let master = self
                .master
                .as_ref()
                .ok_or(PlatformError::NoUpdateMaster(ecu))?;
            let (package, voucher) = master.verify_for(signed, ecu)?;
            debug_assert_eq!(voucher.package_digest, digest);
            Ok((package.version, digest))
        }
    }

    /// Installs and starts `model` on `ecu` from a signed package: verify,
    /// gate through the node, publish offers and subscriptions.
    ///
    /// # Errors
    ///
    /// All [`PlatformError`] variants.
    pub fn deploy(
        &mut self,
        now: SimTime,
        ecu: EcuId,
        model: AppModel,
        signed: &SignedPackage,
    ) -> Result<InstanceId, PlatformError> {
        let (version, digest) = self.verify_package(ecu, signed)?;
        let manifest = AppManifest::new(model, version, digest);
        self.deploy_verified(now, ecu, manifest)
    }

    /// Installs and starts an already-verified manifest (used internally by
    /// the update orchestrator, which verified the package up front).
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownEcu`] or node gate failures.
    pub fn deploy_verified(
        &mut self,
        now: SimTime,
        ecu: EcuId,
        manifest: AppManifest,
    ) -> Result<InstanceId, PlatformError> {
        let node = self
            .nodes
            .get_mut(&ecu)
            .ok_or(PlatformError::UnknownEcu(ecu))?;
        let instance = node.launch(manifest.clone())?;
        self.announce(now, ecu, &manifest);
        Ok(instance)
    }

    /// Publishes the SD offers/subscriptions of a manifest hosted on `ecu`.
    pub(crate) fn announce(&mut self, now: SimTime, ecu: EcuId, manifest: &AppManifest) {
        for service in manifest.provides() {
            self.directory.apply(
                now,
                &SdEntry::Offer {
                    instance: ServiceInstance::new(*service, 0),
                    host: ecu,
                    version: 1,
                    ttl: DEFAULT_SD_TTL,
                },
            );
        }
        for port in manifest.consumes() {
            if let PortKind::Event(group) | PortKind::Stream(group) = port.kind {
                self.directory.apply(
                    now,
                    &SdEntry::Subscribe {
                        instance: ServiceInstance::new(port.service, 0),
                        group,
                        subscriber: manifest.id(),
                        host: ecu,
                        ttl: DEFAULT_SD_TTL,
                    },
                );
            }
        }
    }

    /// Renews all offers/subscriptions of running apps and expires stale
    /// directory state — the platform's periodic SD housekeeping.
    pub fn refresh_directory(&mut self, now: SimTime) {
        let mut to_announce: Vec<(EcuId, AppManifest)> = Vec::new();
        for (&ecu, node) in &self.nodes {
            for (_, inst) in node.instances() {
                if inst.state.is_serving() {
                    to_announce.push((ecu, inst.manifest.clone()));
                }
            }
        }
        for (ecu, manifest) in to_announce {
            self.announce(now, ecu, &manifest);
        }
        self.directory.expire(now);
    }

    /// Authorized binding (§4.2): checks the access matrix, then resolves a
    /// live offer. Deny-by-default: absent rules fail closed.
    ///
    /// # Errors
    ///
    /// [`PlatformError::Unauthorized`] or [`PlatformError::NoOffer`].
    pub fn bind(
        &self,
        now: SimTime,
        client: AppId,
        service: ServiceId,
        permission: Permission,
    ) -> Result<&OfferState, PlatformError> {
        if !self.matrix.check(client, service, permission).is_granted() {
            return Err(PlatformError::Unauthorized { client, service });
        }
        self.directory
            .find(now, service)
            .into_iter()
            .next()
            .ok_or(PlatformError::NoOffer(service))
    }

    /// Stops an application wherever it runs; returns how many instances
    /// were stopped.
    ///
    /// # Errors
    ///
    /// [`PlatformError::UnknownApp`] when nothing was stopped.
    pub fn stop_app(&mut self, now: SimTime, app: AppId) -> Result<usize, PlatformError> {
        let mut stopped = 0;
        let mut withdrawals: Vec<ServiceId> = Vec::new();
        for node in self.nodes.values_mut() {
            let ids: Vec<InstanceId> = node.serving_instances_of(app);
            for id in ids {
                node.transition(id, LifecycleState::Stopping)?;
                node.transition(id, LifecycleState::Stopped)?;
                stopped += 1;
            }
        }
        if stopped == 0 {
            return Err(PlatformError::UnknownApp(app));
        }
        // Withdraw offers the app provided.
        for node in self.nodes.values() {
            for (_, inst) in node.instances() {
                if inst.manifest.id() == app {
                    withdrawals.extend(inst.manifest.provides().iter().copied());
                }
            }
        }
        for service in withdrawals {
            self.directory.apply(
                now,
                &SdEntry::StopOffer {
                    instance: ServiceInstance::new(service, 0),
                },
            );
        }
        Ok(stopped)
    }

    /// Simulates the failure of an entire ECU: all its instances fail, its
    /// offers vanish. Returns the ids of the applications that lost their
    /// only serving instance — input to the redundancy manager (§3.3).
    pub fn fail_ecu(&mut self, now: SimTime, ecu: EcuId) -> Vec<AppId> {
        let Some(node) = self.nodes.get_mut(&ecu) else {
            return Vec::new();
        };
        let mut affected = Vec::new();
        let ids: Vec<(InstanceId, AppManifest, LifecycleState)> = node
            .instances()
            .map(|(id, i)| (id, i.manifest.clone(), i.state))
            .collect();
        for (id, manifest, state) in ids {
            if state.is_serving() || state == LifecycleState::Starting {
                let _ = node.transition(id, LifecycleState::Failed);
                affected.push(manifest.id());
                for service in manifest.provides() {
                    self.directory.apply(
                        now,
                        &SdEntry::StopOffer {
                            instance: ServiceInstance::new(*service, 0),
                        },
                    );
                }
            }
        }
        // Apps still served elsewhere are not "affected".
        let nodes = &self.nodes;
        affected.retain(|app| {
            !nodes
                .values()
                .any(|n| !n.serving_instances_of(*app).is_empty())
        });
        affected.sort();
        affected.dedup();
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::time::SimDuration;
    use dynplat_common::{AppKind, Asil, EventGroupId};
    use dynplat_hw::ecu::EcuClass;
    use dynplat_model::ir::ConsumedPort;
    use dynplat_security::package::UpdatePackage;
    use dynplat_security::sign::KeyPair;

    fn model(id: u32, provides: Vec<ServiceId>, consumes: Vec<ConsumedPort>) -> AppModel {
        AppModel {
            id: AppId(id),
            name: format!("app{id}"),
            kind: AppKind::Deterministic,
            asil: Asil::B,
            provides,
            consumes,
            period: SimDuration::from_millis(10),
            work_mi: 1.0,
            memory_kib: 128,
            needs_gpu: false,
        }
    }

    fn signed_package(app: u32, authority: &KeyPair, counter: u64) -> SignedPackage {
        let package = UpdatePackage::new(AppId(app), Version::new(1, 0, 0), counter, vec![1, 2, 3]);
        SignedPackage::create(&package, authority)
    }

    fn platform_with(authority: &KeyPair) -> DynamicPlatform {
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let mut platform = DynamicPlatform::new(registry);
        platform.add_node(EcuSpec::of_class(EcuId(1), "gw", EcuClass::Domain));
        platform.add_node(EcuSpec::of_class(EcuId(2), "hp", EcuClass::HighPerformance));
        platform.add_node(EcuSpec::of_class(EcuId(0), "weak", EcuClass::LowEnd));
        platform
    }

    #[test]
    fn deploy_verifies_and_offers() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let now = SimTime::ZERO;
        let signed = signed_package(1, &authority, 1);
        let m = model(1, vec![ServiceId(10)], vec![]);
        let id = platform.deploy(now, EcuId(1), m, &signed).unwrap();
        assert!(platform
            .node(EcuId(1))
            .unwrap()
            .instances()
            .any(|(i, _)| i == id));
        assert_eq!(platform.directory().find(now, ServiceId(10)).len(), 1);
    }

    #[test]
    fn rogue_package_is_refused() {
        let authority = KeyPair::from_seed(b"oem");
        let rogue = KeyPair::from_seed(b"rogue");
        let mut platform = platform_with(&authority);
        let signed = signed_package(1, &rogue, 1);
        let err = platform
            .deploy(SimTime::ZERO, EcuId(1), model(1, vec![], vec![]), &signed)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::Package(PackageError::UntrustedSigner(_))
        ));
    }

    #[test]
    fn weak_ecu_requires_update_master() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let signed = signed_package(1, &authority, 1);
        // No master configured: refused.
        let err = platform
            .deploy(SimTime::ZERO, EcuId(0), model(1, vec![], vec![]), &signed)
            .unwrap_err();
        assert!(matches!(err, PlatformError::NoUpdateMaster(EcuId(0))));
        // With a master enrolled for ecu0 it works.
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let mut master = VoucherIssuer::new(registry);
        master.enroll(EcuId(0), [9; 32]);
        platform.set_update_master(master);
        platform
            .deploy(SimTime::ZERO, EcuId(0), model(1, vec![], vec![]), &signed)
            .unwrap();
    }

    #[test]
    fn replayed_package_is_refused_on_strong_ecu() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let signed = signed_package(1, &authority, 1);
        platform
            .deploy(SimTime::ZERO, EcuId(1), model(1, vec![], vec![]), &signed)
            .unwrap();
        let err = platform
            .deploy(SimTime::ZERO, EcuId(2), model(1, vec![], vec![]), &signed)
            .unwrap_err();
        assert!(matches!(
            err,
            PlatformError::Package(PackageError::ReplayOrRollback { .. })
        ));
    }

    #[test]
    fn binding_is_deny_by_default_and_grantable() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let now = SimTime::ZERO;
        let signed = signed_package(1, &authority, 1);
        platform
            .deploy(
                now,
                EcuId(1),
                model(1, vec![ServiceId(10)], vec![]),
                &signed,
            )
            .unwrap();

        let err = platform
            .bind(now, AppId(2), ServiceId(10), Permission::Subscribe)
            .unwrap_err();
        assert!(matches!(err, PlatformError::Unauthorized { .. }));

        let mut matrix = AccessControlMatrix::new();
        matrix.grant(AppId(2), ServiceId(10), Permission::Subscribe);
        platform.set_access_matrix(matrix);
        let offer = platform
            .bind(now, AppId(2), ServiceId(10), Permission::Subscribe)
            .unwrap();
        assert_eq!(offer.host, EcuId(1));

        // No offer for an unknown service even when authorized.
        let mut extra = AccessControlMatrix::new();
        extra.grant(AppId(2), ServiceId(11), Permission::Subscribe);
        platform.merge_permissions(&extra);
        assert!(matches!(
            platform.bind(now, AppId(2), ServiceId(11), Permission::Subscribe),
            Err(PlatformError::NoOffer(_))
        ));
    }

    #[test]
    fn stop_app_withdraws_offers() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let now = SimTime::ZERO;
        let signed = signed_package(1, &authority, 1);
        platform
            .deploy(
                now,
                EcuId(1),
                model(1, vec![ServiceId(10)], vec![]),
                &signed,
            )
            .unwrap();
        assert_eq!(platform.stop_app(now, AppId(1)).unwrap(), 1);
        assert!(platform.directory().find(now, ServiceId(10)).is_empty());
        assert!(matches!(
            platform.stop_app(now, AppId(1)),
            Err(PlatformError::UnknownApp(_))
        ));
    }

    #[test]
    fn subscriptions_are_registered_for_consumers() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let now = SimTime::ZERO;
        platform
            .deploy(
                now,
                EcuId(1),
                model(1, vec![ServiceId(10)], vec![]),
                &signed_package(1, &authority, 1),
            )
            .unwrap();
        let consumer = model(
            2,
            vec![],
            vec![ConsumedPort {
                service: ServiceId(10),
                kind: PortKind::Event(EventGroupId(1)),
            }],
        );
        platform
            .deploy(now, EcuId(2), consumer, &signed_package(2, &authority, 2))
            .unwrap();
        let mut subs = Vec::new();
        platform.directory().for_each_subscriber(
            now,
            ServiceInstance::new(ServiceId(10), 0),
            EventGroupId(1),
            |s| subs.push(s.clone()),
        );
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].host, EcuId(2));
    }

    #[test]
    fn ecu_failure_reports_unserved_apps() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        let now = SimTime::ZERO;
        platform
            .deploy(
                now,
                EcuId(1),
                model(1, vec![ServiceId(10)], vec![]),
                &signed_package(1, &authority, 1),
            )
            .unwrap();
        let affected = platform.fail_ecu(now, EcuId(1));
        assert_eq!(affected, vec![AppId(1)]);
        assert!(platform.directory().find(now, ServiceId(10)).is_empty());
        // Failing an empty ECU affects nothing.
        assert!(platform.fail_ecu(now, EcuId(2)).is_empty());
    }

    #[test]
    fn refresh_keeps_running_offers_alive() {
        let authority = KeyPair::from_seed(b"oem");
        let mut platform = platform_with(&authority);
        platform
            .deploy(
                SimTime::ZERO,
                EcuId(1),
                model(1, vec![ServiceId(10)], vec![]),
                &signed_package(1, &authority, 1),
            )
            .unwrap();
        // Past the original TTL but refreshed in between.
        let later = SimTime::ZERO + DEFAULT_SD_TTL - SimDuration::from_secs(1);
        platform.refresh_directory(later);
        let after = later + DEFAULT_SD_TTL - SimDuration::from_secs(1);
        assert_eq!(platform.directory().find(after, ServiceId(10)).len(), 1);
    }
}
