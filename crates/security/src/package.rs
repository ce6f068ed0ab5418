//! Signed update packages (§4.1 "Package Security").
//!
//! An [`UpdatePackage`] is the unit an OTA campaign ships: application id,
//! version, payload image and deployment metadata. A signing authority
//! wraps it into a [`SignedPackage`]; receivers verify against a
//! [`KeyRegistry`] of trusted authorities. The canonical byte encoding is
//! the signed surface — any bit flip in id, version, payload or metadata
//! invalidates the signature.

use crate::sign::{KeyPair, PublicKey, Signature};
use dynplat_common::codec::{ByteReader, ByteWriter, CodecError};
use dynplat_common::AppId;
use std::collections::BTreeMap;
use std::fmt;

/// A semantic application version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Version {
    /// Major version (breaking interface changes).
    pub major: u16,
    /// Minor version (compatible additions).
    pub minor: u16,
    /// Patch level.
    pub patch: u16,
}

impl Version {
    /// Creates a version.
    pub const fn new(major: u16, minor: u16, patch: u16) -> Self {
        Version {
            major,
            minor,
            patch,
        }
    }

    /// `true` if a consumer built against `required` can bind to this
    /// provider version (same major, at least the required minor).
    pub fn is_compatible_with(self, required: Version) -> bool {
        self.major == required.major && (self.minor, self.patch) >= (required.minor, required.patch)
    }
}

/// An unsigned update package.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdatePackage {
    /// Application being shipped.
    pub app: AppId,
    /// New version.
    pub version: Version,
    /// Monotonic release counter — receivers reject non-increasing values
    /// (replay/rollback protection).
    pub release_counter: u64,
    /// The binary image.
    pub payload: Vec<u8>,
    /// Free-form metadata (deployment constraints, changelog id, …).
    pub metadata: BTreeMap<String, String>,
}

impl UpdatePackage {
    /// Creates a package.
    pub fn new(app: AppId, version: Version, release_counter: u64, payload: Vec<u8>) -> Self {
        UpdatePackage {
            app,
            version,
            release_counter,
            payload,
            metadata: BTreeMap::new(),
        }
    }

    /// Adds a metadata entry (builder style).
    pub fn with_metadata(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.metadata.insert(key.into(), value.into());
        self
    }

    /// Canonical byte encoding — the exact surface that gets signed.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + self.payload.len());
        w.put_u32(self.app.raw());
        w.put_u16(self.version.major);
        w.put_u16(self.version.minor);
        w.put_u16(self.version.patch);
        w.put_u64(self.release_counter);
        w.put_len_prefixed(&self.payload);
        w.put_u32(self.metadata.len() as u32);
        for (k, v) in &self.metadata {
            w.put_string(k);
            w.put_string(v);
        }
        w.into_vec()
    }

    /// Decodes the canonical encoding.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(bytes);
        let app = AppId(r.take_u32()?);
        let version = Version::new(r.take_u16()?, r.take_u16()?, r.take_u16()?);
        let release_counter = r.take_u64()?;
        let payload = r.take_len_prefixed(1 << 26)?.to_vec();
        let n = r.take_u32()? as usize;
        if n > 4096 {
            return Err(CodecError::LengthOutOfRange { len: n, max: 4096 });
        }
        let mut metadata = BTreeMap::new();
        for _ in 0..n {
            let k = r.take_string()?;
            let v = r.take_string()?;
            metadata.insert(k, v);
        }
        Ok(UpdatePackage {
            app,
            version,
            release_counter,
            payload,
            metadata,
        })
    }
}

/// Errors raised during package verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PackageError {
    /// The signing key is not in the trust registry.
    UntrustedSigner([u8; 8]),
    /// The signature does not match the package bytes.
    BadSignature,
    /// The package decodes but its release counter does not advance.
    ReplayOrRollback {
        /// The counter in the package.
        got: u64,
        /// The last accepted counter.
        expected_above: u64,
    },
    /// The raw bytes are malformed.
    Malformed(CodecError),
}

impl fmt::Display for PackageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackageError::UntrustedSigner(id) => write!(f, "untrusted signer {id:02x?}"),
            PackageError::BadSignature => write!(f, "signature verification failed"),
            PackageError::ReplayOrRollback {
                got,
                expected_above,
            } => {
                write!(f, "release counter {got} not above {expected_above}")
            }
            PackageError::Malformed(e) => write!(f, "malformed package: {e}"),
        }
    }
}

impl std::error::Error for PackageError {}

#[doc(hidden)]
impl From<CodecError> for PackageError {
    fn from(e: CodecError) -> Self {
        PackageError::Malformed(e)
    }
}

/// A package plus its authority signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SignedPackage {
    /// Canonical package bytes (the signed surface).
    pub package_bytes: Vec<u8>,
    /// Authority signature over `package_bytes`.
    pub signature: Signature,
    /// Key id of the signer, for registry lookup.
    pub signer: [u8; 8],
}

impl SignedPackage {
    /// Signs `package` with `authority`.
    pub fn create(package: &UpdatePackage, authority: &KeyPair) -> Self {
        let package_bytes = package.to_bytes();
        let signature = authority.sign(&package_bytes);
        SignedPackage {
            package_bytes,
            signature,
            signer: authority.public().key_id(),
        }
    }

    /// Verifies against `registry` and decodes the package.
    ///
    /// # Errors
    ///
    /// Returns [`PackageError::UntrustedSigner`], [`PackageError::BadSignature`]
    /// or [`PackageError::Malformed`].
    pub fn verify(&self, registry: &KeyRegistry) -> Result<UpdatePackage, PackageError> {
        let key = registry
            .lookup(self.signer)
            .ok_or(PackageError::UntrustedSigner(self.signer))?;
        if !key.verify(&self.package_bytes, &self.signature) {
            return Err(PackageError::BadSignature);
        }
        Ok(UpdatePackage::from_bytes(&self.package_bytes)?)
    }
}

/// Registry of trusted authority keys, with revocation.
#[derive(Clone, Debug, Default)]
pub struct KeyRegistry {
    keys: BTreeMap<[u8; 8], PublicKey>,
}

impl KeyRegistry {
    /// Creates an empty registry (nothing is trusted).
    pub fn new() -> Self {
        KeyRegistry::default()
    }

    /// Trusts `key`.
    pub fn trust(&mut self, key: PublicKey) {
        self.keys.insert(key.key_id(), key);
    }

    /// Revokes a key by id; returns whether it was present.
    pub fn revoke(&mut self, key_id: [u8; 8]) -> bool {
        self.keys.remove(&key_id).is_some()
    }

    /// Looks up a trusted key.
    pub fn lookup(&self, key_id: [u8; 8]) -> Option<&PublicKey> {
        self.keys.get(&key_id)
    }
}

/// Receiver-side installation gate: verifies signature *and* enforces the
/// monotonic release counter per application.
#[derive(Clone, Debug, Default)]
pub struct InstallGate {
    last_counter: BTreeMap<AppId, u64>,
}

impl InstallGate {
    /// Creates a gate with no installation history.
    pub fn new() -> Self {
        InstallGate::default()
    }

    /// Verifies `signed` and, if acceptable, records its counter.
    ///
    /// # Errors
    ///
    /// All [`PackageError`] variants, including
    /// [`PackageError::ReplayOrRollback`] when the counter does not advance.
    pub fn accept(
        &mut self,
        signed: &SignedPackage,
        registry: &KeyRegistry,
    ) -> Result<UpdatePackage, PackageError> {
        let package = signed.verify(registry)?;
        let last = self.last_counter.get(&package.app).copied().unwrap_or(0);
        if package.release_counter <= last {
            return Err(PackageError::ReplayOrRollback {
                got: package.release_counter,
                expected_above: last,
            });
        }
        self.last_counter
            .insert(package.app, package.release_counter);
        Ok(package)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_package() -> UpdatePackage {
        UpdatePackage::new(AppId(7), Version::new(2, 1, 0), 42, vec![1, 2, 3, 4])
            .with_metadata("changelog", "CL-1138")
            .with_metadata("target", "zone-controller")
    }

    #[test]
    fn encoding_roundtrip() {
        let p = sample_package();
        let bytes = p.to_bytes();
        assert_eq!(UpdatePackage::from_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn truncated_encoding_is_malformed() {
        let bytes = sample_package().to_bytes();
        assert!(UpdatePackage::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn sign_and_verify() {
        let authority = KeyPair::from_seed(b"oem release authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let signed = SignedPackage::create(&sample_package(), &authority);
        let verified = signed.verify(&registry).unwrap();
        assert_eq!(verified, sample_package());
    }

    #[test]
    fn unsigned_authority_is_untrusted() {
        let rogue = KeyPair::from_seed(b"rogue");
        let registry = KeyRegistry::new();
        let signed = SignedPackage::create(&sample_package(), &rogue);
        assert_eq!(
            signed.verify(&registry),
            Err(PackageError::UntrustedSigner(rogue.public().key_id()))
        );
    }

    #[test]
    fn bit_flip_anywhere_breaks_signature() {
        let authority = KeyPair::from_seed(b"authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let signed = SignedPackage::create(&sample_package(), &authority);
        for pos in 0..signed.package_bytes.len() {
            let mut tampered = signed.clone();
            tampered.package_bytes[pos] ^= 0x01;
            assert!(
                matches!(
                    tampered.verify(&registry),
                    Err(PackageError::BadSignature) | Err(PackageError::Malformed(_))
                ),
                "bit flip at {pos} slipped through"
            );
        }
    }

    #[test]
    fn revoked_key_stops_verifying() {
        let authority = KeyPair::from_seed(b"authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let signed = SignedPackage::create(&sample_package(), &authority);
        assert!(signed.verify(&registry).is_ok());
        assert!(registry.revoke(authority.public().key_id()));
        assert!(matches!(
            signed.verify(&registry),
            Err(PackageError::UntrustedSigner(_))
        ));
        assert!(!registry.revoke(authority.public().key_id()));
    }

    #[test]
    fn install_gate_blocks_replay_and_rollback() {
        let authority = KeyPair::from_seed(b"authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let mut gate = InstallGate::new();

        let v1 = UpdatePackage::new(AppId(7), Version::new(1, 0, 0), 1, vec![1]);
        let v2 = UpdatePackage::new(AppId(7), Version::new(1, 1, 0), 2, vec![2]);
        let s1 = SignedPackage::create(&v1, &authority);
        let s2 = SignedPackage::create(&v2, &authority);

        gate.accept(&s1, &registry).unwrap();
        gate.accept(&s2, &registry).unwrap();
        // Replaying v2 or rolling back to v1 both fail.
        assert!(matches!(
            gate.accept(&s2, &registry),
            Err(PackageError::ReplayOrRollback {
                got: 2,
                expected_above: 2
            })
        ));
        assert!(matches!(
            gate.accept(&s1, &registry),
            Err(PackageError::ReplayOrRollback {
                got: 1,
                expected_above: 2
            })
        ));
        // Other apps are unaffected.
        let other = UpdatePackage::new(AppId(8), Version::new(1, 0, 0), 1, vec![1]);
        gate.accept(&SignedPackage::create(&other, &authority), &registry)
            .unwrap();
    }

    #[test]
    fn version_compatibility() {
        let v21 = Version::new(2, 1, 0);
        assert!(Version::new(2, 3, 0).is_compatible_with(v21));
        assert!(v21.is_compatible_with(v21));
        assert!(!Version::new(3, 0, 0).is_compatible_with(v21));
        assert!(!Version::new(2, 0, 9).is_compatible_with(v21));
    }
}
