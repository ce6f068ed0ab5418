//! Quality-of-service requirement attributes.
//!
//! §2.2: interface requirements "might consist of multiple attributes, such
//! as latency and jitter for real-time applications or bandwidth for
//! streaming applications". A [`QosSpec`] travels with each interface
//! definition, and the verification engine checks deployments against it.

use dynplat_common::time::SimDuration;

/// Requirements a communication relation must satisfy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QosSpec {
    /// Maximum end-to-end latency, if bounded.
    pub max_latency: Option<SimDuration>,
    /// Maximum delivery jitter, if bounded.
    pub max_jitter: Option<SimDuration>,
    /// Minimum sustained bandwidth in bit/s, if required.
    pub min_bandwidth: Option<u64>,
    /// Whether the relation is safety-critical.
    pub critical: bool,
}

impl QosSpec {
    /// No requirements (best effort).
    pub fn best_effort() -> Self {
        QosSpec::default()
    }
}
