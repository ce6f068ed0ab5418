//! Security substrate for the dynamic platform (§4 of the paper).
//!
//! Dynamic loading and over-the-air updating of software raise the security
//! bar: packages must be authentic, service bindings authenticated, and
//! access authorized — with ECUs that sometimes cannot even afford
//! public-key cryptography. This crate implements the full stack from
//! scratch (the offline crate set contains no cryptography):
//!
//! * [`mod@sha256`] — FIPS 180-4 SHA-256 and RFC 2104 HMAC-SHA256, verified
//!   against the standard test vectors;
//! * [`sign`] — a Schnorr-style signature scheme over a 61-bit prime field.
//!   **This is a simulation stand-in, not production cryptography**: the
//!   structure (keygen / deterministic nonce / sign / verify / tamper
//!   rejection) is faithful, the parameters are toy-sized so the whole
//!   system stays dependency-free (see DESIGN.md §5);
//! * [`package`] — signed update packages and the trusted-key registry;
//! * [`master`] — the *update master* of §4.1: a capable ECU that verifies
//!   packages on behalf of crypto-less ECUs and re-authenticates them over
//!   pre-shared MAC keys, deployable redundantly;
//! * [`authn`] — lightweight session authentication in the spirit of the
//!   paper's reference \[10\]: a key server grants HMAC-derived session keys
//!   and tickets, messages carry truncated MACs with replay counters;
//! * [`authz`] — the distributed access-control matrix of §4.2:
//!   deny-by-default, generated from the interface model, updatable at
//!   runtime, with audited wildcard grants for diagnosis clients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod authn;
pub mod authz;
pub mod master;
pub mod package;
pub mod sha256;
pub mod sign;

pub use authn::{AuthError, KeyServer, SecureChannel};
pub use authz::{AccessControlMatrix, AccessDecision, Permission};
pub use master::{Voucher, VoucherIssuer};
pub use package::{KeyRegistry, PackageError, SignedPackage, UpdatePackage, Version};
pub use sha256::{hmac_sha256, sha256, Sha256};
pub use sign::{KeyPair, PublicKey, Signature};
