//! The update master (§4.1).
//!
//! "Not all ECUs might have sufficient power to perform cryptographic
//! operations at runtime. For such ECUs we propose to use an update master
//! to which a trust relationship can be established. … To avoid a single
//! point of failure, the update master would need to be instantiated in a
//! redundant fashion."
//!
//! A [`VoucherIssuer`] holds the trust registry and verifies signed
//! packages on behalf of weak ECUs. It re-authenticates the verified
//! package to each weak ECU with a [`Voucher`]: an HMAC over the package
//! digest under the pre-shared key of that ECU — a symmetric operation
//! cheap enough for the weakest microcontroller.

use crate::package::{KeyRegistry, PackageError, SignedPackage, UpdatePackage};
use crate::sha256::{ct_eq, hmac_sha256, sha256};
use dynplat_common::EcuId;
use std::collections::BTreeMap;

/// MAC-based proof that a master verified a package for a specific ECU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Voucher {
    /// The ECU this voucher addresses.
    pub ecu: EcuId,
    /// SHA-256 of the package bytes the voucher covers.
    pub package_digest: [u8; 32],
    /// HMAC over (ecu ‖ digest) under the ECU's pre-shared key.
    pub tag: [u8; 32],
}

/// A capable ECU that verifies packages for crypto-less peers.
#[derive(Clone, Debug)]
pub struct VoucherIssuer {
    registry: KeyRegistry,
    // Pre-shared symmetric keys with the weak ECUs it serves.
    psk: BTreeMap<EcuId, [u8; 32]>,
}

impl VoucherIssuer {
    /// Creates a master trusting `registry`.
    pub fn new(registry: KeyRegistry) -> Self {
        VoucherIssuer {
            registry,
            psk: BTreeMap::new(),
        }
    }

    /// Establishes the trust relationship with a weak ECU (factory
    /// provisioning of a pre-shared key).
    pub fn enroll(&mut self, ecu: EcuId, psk: [u8; 32]) {
        self.psk.insert(ecu, psk);
    }

    /// Verifies `signed` with public-key cryptography and, on success,
    /// issues a voucher for `ecu`.
    ///
    /// # Errors
    ///
    /// All [`PackageError`] variants, plus
    /// [`PackageError::UntrustedSigner`] with a zero id if `ecu` is not
    /// enrolled (no trust relationship exists).
    pub fn verify_for(
        &self,
        signed: &SignedPackage,
        ecu: EcuId,
    ) -> Result<(UpdatePackage, Voucher), PackageError> {
        let psk = self
            .psk
            .get(&ecu)
            .ok_or(PackageError::UntrustedSigner([0; 8]))?;
        let package = signed.verify(&self.registry)?;
        let package_digest = sha256(&signed.package_bytes);
        let tag = voucher_tag(psk, ecu, &package_digest);
        Ok((
            package,
            Voucher {
                ecu,
                package_digest,
                tag,
            },
        ))
    }
}

fn voucher_tag(psk: &[u8; 32], ecu: EcuId, digest: &[u8; 32]) -> [u8; 32] {
    let mut msg = Vec::with_capacity(2 + 32);
    msg.extend_from_slice(&ecu.raw().to_be_bytes());
    msg.extend_from_slice(digest);
    hmac_sha256(psk, &msg)
}

/// The weak-ECU side: accepts a package only with a valid voucher under its
/// pre-shared key — a single HMAC, no public-key operations.
#[derive(Clone, Debug)]
pub struct WeakEcuVerifier {
    ecu: EcuId,
    psk: [u8; 32],
}

impl WeakEcuVerifier {
    /// Creates the verifier with the factory-provisioned key.
    pub fn new(ecu: EcuId, psk: [u8; 32]) -> Self {
        WeakEcuVerifier { ecu, psk }
    }

    /// Checks that `voucher` covers `package_bytes` and addresses this ECU.
    pub fn accept(&self, package_bytes: &[u8], voucher: &Voucher) -> bool {
        if voucher.ecu != self.ecu {
            return false;
        }
        let digest = sha256(package_bytes);
        if !ct_eq(&digest, &voucher.package_digest) {
            return false;
        }
        let expect = voucher_tag(&self.psk, self.ecu, &digest);
        ct_eq(&expect, &voucher.tag)
    }
}

/// Redundant master deployment: the primary serves requests; on failure the
/// backup takes over (no single point of failure, §4.1).
#[derive(Clone, Debug)]
pub struct RedundantMasters {
    masters: Vec<VoucherIssuer>,
    failed: Vec<bool>,
}

impl RedundantMasters {
    /// Creates a redundant group; all masters should share registry and
    /// enrollments.
    ///
    /// # Panics
    ///
    /// Panics if `masters` is empty.
    pub fn new(masters: Vec<VoucherIssuer>) -> Self {
        assert!(!masters.is_empty(), "need at least one master");
        let failed = vec![false; masters.len()];
        RedundantMasters { masters, failed }
    }

    /// Marks master `idx` as failed.
    pub fn fail(&mut self, idx: usize) {
        if let Some(f) = self.failed.get_mut(idx) {
            *f = true;
        }
    }

    /// The index of the currently serving master, if any survives.
    pub fn active(&self) -> Option<usize> {
        self.failed.iter().position(|f| !f)
    }

    /// Serves a verification request through the first healthy master.
    ///
    /// # Errors
    ///
    /// [`PackageError`] from the serving master; `UntrustedSigner([0xFF;8])`
    /// if every master has failed (service unavailable).
    pub fn verify_for(
        &self,
        signed: &SignedPackage,
        ecu: EcuId,
    ) -> Result<(UpdatePackage, Voucher), PackageError> {
        match self.active() {
            Some(idx) => self.masters[idx].verify_for(signed, ecu),
            None => Err(PackageError::UntrustedSigner([0xFF; 8])),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::package::{UpdatePackage, Version};
    use crate::sign::KeyPair;
    use dynplat_common::AppId;

    fn setup() -> (KeyPair, KeyRegistry, SignedPackage) {
        let authority = KeyPair::from_seed(b"authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let package = UpdatePackage::new(AppId(3), Version::new(1, 0, 0), 5, vec![9, 9]);
        let signed = SignedPackage::create(&package, &authority);
        (authority, registry, signed)
    }

    #[test]
    fn master_verifies_and_weak_ecu_accepts() {
        let (_, registry, signed) = setup();
        let mut master = VoucherIssuer::new(registry);
        let psk = [0x42; 32];
        master.enroll(EcuId(5), psk);
        let (package, voucher) = master.verify_for(&signed, EcuId(5)).unwrap();
        assert_eq!(package.app, AppId(3));

        let weak = WeakEcuVerifier::new(EcuId(5), psk);
        assert!(weak.accept(&signed.package_bytes, &voucher));
    }

    #[test]
    fn voucher_does_not_transfer_between_ecus() {
        let (_, registry, signed) = setup();
        let mut master = VoucherIssuer::new(registry);
        master.enroll(EcuId(5), [0x42; 32]);
        master.enroll(EcuId(6), [0x43; 32]);
        let (_, voucher5) = master.verify_for(&signed, EcuId(5)).unwrap();
        let weak6 = WeakEcuVerifier::new(EcuId(6), [0x43; 32]);
        assert!(!weak6.accept(&signed.package_bytes, &voucher5));
    }

    #[test]
    fn tampered_payload_fails_at_weak_ecu() {
        let (_, registry, signed) = setup();
        let mut master = VoucherIssuer::new(registry);
        let psk = [0x42; 32];
        master.enroll(EcuId(5), psk);
        let (_, voucher) = master.verify_for(&signed, EcuId(5)).unwrap();
        let weak = WeakEcuVerifier::new(EcuId(5), psk);
        let mut tampered = signed.package_bytes.clone();
        tampered[0] ^= 1;
        assert!(!weak.accept(&tampered, &voucher));
    }

    #[test]
    fn unenrolled_ecu_is_refused() {
        let (_, registry, signed) = setup();
        let master = VoucherIssuer::new(registry);
        assert!(master.verify_for(&signed, EcuId(9)).is_err());
        assert!(master.psk.is_empty());
    }

    #[test]
    fn master_rejects_untrusted_package() {
        let rogue = KeyPair::from_seed(b"rogue");
        let package = UpdatePackage::new(AppId(3), Version::new(9, 9, 9), 99, vec![6, 6, 6]);
        let signed = SignedPackage::create(&package, &rogue);
        let mut master = VoucherIssuer::new(KeyRegistry::new());
        master.enroll(EcuId(5), [0; 32]);
        assert!(master.verify_for(&signed, EcuId(5)).is_err());
    }

    #[test]
    fn redundant_masters_fail_over() {
        let (_, registry, signed) = setup();
        let psk = [1; 32];
        let mut m1 = VoucherIssuer::new(registry.clone());
        let mut m2 = VoucherIssuer::new(registry);
        m1.enroll(EcuId(5), psk);
        m2.enroll(EcuId(5), psk);
        let mut group = RedundantMasters::new(vec![m1, m2]);
        assert_eq!(group.active(), Some(0));
        group.verify_for(&signed, EcuId(5)).unwrap();

        group.fail(0);
        assert_eq!(group.active(), Some(1));
        // Backup produces an equally valid voucher (same PSK).
        let (_, voucher) = group.verify_for(&signed, EcuId(5)).unwrap();
        assert!(WeakEcuVerifier::new(EcuId(5), psk).accept(&signed.package_bytes, &voucher));

        group.fail(1);
        assert_eq!(group.active(), None);
        assert!(group.verify_for(&signed, EcuId(5)).is_err());
    }
}
