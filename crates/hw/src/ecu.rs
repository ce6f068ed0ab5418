//! ECU specifications.
//!
//! The paper motivates the move to dynamic platforms with today's hardware
//! reality: "current ECUs typically contain CPUs with 200 MHz or less" (§1),
//! which cannot carry AI/ADAS workloads, while consolidated platform ECUs
//! bring application-class CPUs, GPUs and hardware crypto. [`EcuClass`]
//! captures these canonical tiers; [`EcuSpec`] is the fully attributed model
//! the verification engine and DSE operate on.

use dynplat_common::time::SimDuration;
use dynplat_common::EcuId;
use std::fmt;

/// CPU attributes of an ECU.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuSpec {
    /// Clock frequency in MHz.
    pub freq_mhz: u32,
    /// Number of cores.
    pub cores: u8,
    /// Throughput in million instructions per second (all cores combined).
    pub mips: u32,
}

impl CpuSpec {
    /// Creates a CPU spec.
    ///
    /// # Panics
    ///
    /// Panics if any field is zero.
    pub fn new(freq_mhz: u32, cores: u8, mips: u32) -> Self {
        assert!(
            freq_mhz > 0 && cores > 0 && mips > 0,
            "CPU attributes must be non-zero"
        );
        CpuSpec {
            freq_mhz,
            cores,
            mips,
        }
    }

    /// Time to execute `instructions` million instructions on this CPU,
    /// assuming full availability of one core's proportional share.
    pub fn exec_time(&self, mega_instructions: f64) -> SimDuration {
        SimDuration::from_secs_f64(mega_instructions / self.mips as f64)
    }
}

/// Hardware support for cryptographic operations (§4.1: "not all ECUs might
/// have sufficient power to perform cryptographic operations at runtime").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CryptoSupport {
    /// No usable crypto capability: must delegate verification to an update
    /// master (§4.1).
    None,
    /// Crypto in software only — functional but slow.
    #[default]
    Software,
    /// Dedicated accelerator block (e.g. SHE-class).
    Accelerator,
    /// Full hardware security module with key storage.
    Hsm,
}

impl CryptoSupport {
    /// Relative cost factor for one signature verification compared to an
    /// accelerator (1.0). [`CryptoSupport::None`] returns `None`: the ECU
    /// cannot verify at all.
    pub fn verify_cost_factor(self) -> Option<f64> {
        match self {
            CryptoSupport::None => None,
            CryptoSupport::Software => Some(20.0),
            CryptoSupport::Accelerator => Some(1.0),
            CryptoSupport::Hsm => Some(0.8),
        }
    }

    /// `true` if the ECU can verify signatures locally.
    pub fn can_verify(self) -> bool {
        !matches!(self, CryptoSupport::None)
    }
}

impl fmt::Display for CryptoSupport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoSupport::None => write!(f, "none"),
            CryptoSupport::Software => write!(f, "software"),
            CryptoSupport::Accelerator => write!(f, "accelerator"),
            CryptoSupport::Hsm => write!(f, "hsm"),
        }
    }
}

/// Canonical ECU tiers of the automotive landscape the paper describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EcuClass {
    /// Classic body/comfort controller: ≤200 MHz, no MMU, no GPU, software
    /// crypto at best. The "smallest unit of electronics" of §1.
    LowEnd,
    /// Domain controller: a few hundred MHz, MMU, accelerator crypto.
    Domain,
    /// Consolidated high-performance platform ECU: GHz-class multicore,
    /// MMU, HSM, GPU — the substrate of the dynamic platform (§1.1).
    HighPerformance,
}

impl EcuClass {
    /// The default attribute set of this class.
    pub fn default_spec(self) -> (CpuSpec, u32, bool, CryptoSupport, bool, u32) {
        // (cpu, ram_kib, mmu, crypto, gpu, cost)
        match self {
            EcuClass::LowEnd => (
                CpuSpec::new(160, 1, 160),
                512,
                false,
                CryptoSupport::None,
                false,
                8,
            ),
            EcuClass::Domain => (
                CpuSpec::new(600, 2, 1_200),
                16 * 1024,
                true,
                CryptoSupport::Accelerator,
                false,
                35,
            ),
            EcuClass::HighPerformance => (
                CpuSpec::new(2_000, 8, 24_000),
                4 * 1024 * 1024,
                true,
                CryptoSupport::Hsm,
                true,
                220,
            ),
        }
    }
}

/// A fully attributed ECU model.
#[derive(Clone, Debug, PartialEq)]
pub struct EcuSpec {
    id: EcuId,
    name: String,
    cpu: CpuSpec,
    ram_kib: u32,
    mmu: bool,
    crypto: CryptoSupport,
    gpu: bool,
    cost: u32,
}

impl EcuSpec {
    /// Starts building an ECU spec; defaults correspond to
    /// [`EcuClass::Domain`].
    pub fn builder(id: EcuId, name: impl Into<String>) -> EcuSpecBuilder {
        EcuSpecBuilder::new(id, name)
    }

    /// Creates an ECU directly from a class preset.
    pub fn of_class(id: EcuId, name: impl Into<String>, class: EcuClass) -> EcuSpec {
        EcuSpecBuilder::new(id, name).class(class).build()
    }

    /// The ECU identifier.
    pub fn id(&self) -> EcuId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// CPU attributes.
    pub fn cpu(&self) -> &CpuSpec {
        &self.cpu
    }

    /// RAM in KiB.
    pub fn ram_kib(&self) -> u32 {
        self.ram_kib
    }

    /// Whether a memory management unit is present. Without an MMU the
    /// platform cannot enforce memory freedom-of-interference (§3.1) and
    /// only a single process group is allowed.
    pub fn has_mmu(&self) -> bool {
        self.mmu
    }

    /// Crypto capability tier.
    pub fn crypto(&self) -> CryptoSupport {
        self.crypto
    }

    /// Whether a GPU is available (neural-network workloads, §1).
    pub fn has_gpu(&self) -> bool {
        self.gpu
    }

    /// Unit cost used by DSE objectives.
    pub fn cost(&self) -> u32 {
        self.cost
    }
}

impl fmt::Display for EcuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}): {} MHz x{}, {} KiB RAM, mmu={}, crypto={}, gpu={}",
            self.name,
            self.id,
            self.cpu.freq_mhz,
            self.cpu.cores,
            self.ram_kib,
            self.mmu,
            self.crypto,
            self.gpu
        )
    }
}

/// Builder for [`EcuSpec`] (C-BUILDER).
#[derive(Clone, Debug)]
pub struct EcuSpecBuilder {
    id: EcuId,
    name: String,
    cpu: CpuSpec,
    ram_kib: u32,
    mmu: bool,
    crypto: CryptoSupport,
    gpu: bool,
    cost: u32,
}

impl EcuSpecBuilder {
    fn new(id: EcuId, name: impl Into<String>) -> Self {
        let (cpu, ram_kib, mmu, crypto, gpu, cost) = EcuClass::Domain.default_spec();
        EcuSpecBuilder {
            id,
            name: name.into(),
            cpu,
            ram_kib,
            mmu,
            crypto,
            gpu,
            cost,
        }
    }

    /// Applies all presets of `class`, keeping id and name.
    pub fn class(mut self, class: EcuClass) -> Self {
        let (cpu, ram_kib, mmu, crypto, gpu, cost) = class.default_spec();
        self.cpu = cpu;
        self.ram_kib = ram_kib;
        self.mmu = mmu;
        self.crypto = crypto;
        self.gpu = gpu;
        self.cost = cost;
        self
    }

    /// Sets the CPU attributes.
    pub fn cpu(mut self, cpu: CpuSpec) -> Self {
        self.cpu = cpu;
        self
    }

    /// Sets the RAM size in KiB.
    pub fn ram_kib(mut self, ram_kib: u32) -> Self {
        self.ram_kib = ram_kib;
        self
    }

    /// Sets MMU presence.
    pub fn mmu(mut self, mmu: bool) -> Self {
        self.mmu = mmu;
        self
    }

    /// Sets the crypto tier.
    pub fn crypto(mut self, crypto: CryptoSupport) -> Self {
        self.crypto = crypto;
        self
    }

    /// Sets GPU presence.
    pub fn gpu(mut self, gpu: bool) -> Self {
        self.gpu = gpu;
        self
    }

    /// Sets the unit cost.
    pub fn cost(mut self, cost: u32) -> Self {
        self.cost = cost;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> EcuSpec {
        EcuSpec {
            id: self.id,
            name: self.name,
            cpu: self.cpu,
            ram_kib: self.ram_kib,
            mmu: self.mmu,
            crypto: self.crypto,
            gpu: self.gpu,
            cost: self.cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_presets_are_ordered_by_capability() {
        let (lo, ..) = EcuClass::LowEnd.default_spec();
        let (dom, ..) = EcuClass::Domain.default_spec();
        let (hp, ..) = EcuClass::HighPerformance.default_spec();
        assert!(lo.mips < dom.mips && dom.mips < hp.mips);
        assert!(
            lo.freq_mhz <= 200,
            "paper: current ECUs are 200 MHz or less"
        );
    }

    #[test]
    fn builder_overrides_class_defaults() {
        let ecu = EcuSpec::builder(EcuId(3), "gateway")
            .class(EcuClass::LowEnd)
            .crypto(CryptoSupport::Software)
            .ram_kib(1024)
            .build();
        assert_eq!(ecu.id(), EcuId(3));
        assert_eq!(ecu.name(), "gateway");
        assert!(!ecu.has_mmu());
        assert_eq!(ecu.crypto(), CryptoSupport::Software);
        assert_eq!(ecu.ram_kib(), 1024);
    }

    #[test]
    fn exec_time_scales_inversely_with_mips() {
        let slow = CpuSpec::new(160, 1, 160);
        let fast = CpuSpec::new(2_000, 8, 24_000);
        let work = 16.0; // 16 million instructions
        assert_eq!(slow.exec_time(work), SimDuration::from_millis(100));
        assert!(fast.exec_time(work) < SimDuration::from_millis(1));
    }

    #[test]
    fn crypto_cost_factors() {
        assert_eq!(CryptoSupport::None.verify_cost_factor(), None);
        assert!(!CryptoSupport::None.can_verify());
        let sw = CryptoSupport::Software.verify_cost_factor().unwrap();
        let acc = CryptoSupport::Accelerator.verify_cost_factor().unwrap();
        let hsm = CryptoSupport::Hsm.verify_cost_factor().unwrap();
        assert!(sw > acc && acc > hsm);
    }

    #[test]
    fn display_is_informative() {
        let ecu = EcuSpec::of_class(EcuId(1), "body", EcuClass::LowEnd);
        let s = ecu.to_string();
        assert!(s.contains("body"));
        assert!(s.contains("ecu1"));
        assert!(s.contains("crypto=none"));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_cpu_attributes_panic() {
        CpuSpec::new(0, 1, 100);
    }
}
