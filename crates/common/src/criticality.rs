//! Criticality and application-kind vocabulary.
//!
//! The paper's application model (§3.1) splits applications into
//! *deterministic* (strict schedule requirements, fixed execution times and
//! jitter — control loops, ADAS functions) and *non-deterministic* (relaxed
//! scheduling — typically infotainment). Orthogonally, ISO 26262 assigns each
//! function an Automotive Safety Integrity Level (ASIL).

use std::fmt;
use std::str::FromStr;

/// Automotive Safety Integrity Level per ISO 26262.
///
/// Ordered from least ([`Asil::Qm`]) to most critical ([`Asil::D`]); the
/// `Ord` impl reflects that, so "at least ASIL B" is `asil >= Asil::B`.
///
/// # Examples
///
/// ```
/// use dynplat_common::Asil;
///
/// assert!(Asil::D > Asil::A);
/// assert_eq!("ASIL-C".parse::<Asil>().unwrap(), Asil::C);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Asil {
    /// Quality Managed — no safety requirements.
    #[default]
    Qm,
    /// ASIL A — lowest safety integrity level.
    A,
    /// ASIL B.
    B,
    /// ASIL C.
    C,
    /// ASIL D — highest safety integrity level (e.g. braking, steering).
    D,
}

impl Asil {
    /// All levels in ascending criticality order.
    pub const ALL: [Asil; 5] = [Asil::Qm, Asil::A, Asil::B, Asil::C, Asil::D];

    /// `true` if a component at this level may depend on one at `dep`.
    ///
    /// ISO 26262 decomposition aside, a software module "can only be
    /// considered safe with correct safe dependencies" (§3 of the paper):
    /// dependencies must be rated at least as high as the dependent module.
    pub fn may_depend_on(self, dep: Asil) -> bool {
        dep >= self
    }

    /// A conventional testing-effort multiplier relative to QM, used by the
    /// XiL substrate to model the longer certification cycles of higher
    /// ASILs (faster time-to-market challenge, §1).
    pub fn test_effort_factor(self) -> f64 {
        match self {
            Asil::Qm => 1.0,
            Asil::A => 2.0,
            Asil::B => 3.5,
            Asil::C => 6.0,
            Asil::D => 10.0,
        }
    }
}

impl fmt::Display for Asil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Asil::Qm => write!(f, "QM"),
            Asil::A => write!(f, "ASIL-A"),
            Asil::B => write!(f, "ASIL-B"),
            Asil::C => write!(f, "ASIL-C"),
            Asil::D => write!(f, "ASIL-D"),
        }
    }
}

/// Error returned when parsing an [`Asil`] from a string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseAsilError(String);

impl fmt::Display for ParseAsilError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown ASIL level `{}`", self.0)
    }
}

impl std::error::Error for ParseAsilError {}

impl FromStr for Asil {
    type Err = ParseAsilError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "QM" => Ok(Asil::Qm),
            "A" | "ASIL-A" | "ASIL_A" => Ok(Asil::A),
            "B" | "ASIL-B" | "ASIL_B" => Ok(Asil::B),
            "C" | "ASIL-C" | "ASIL_C" => Ok(Asil::C),
            "D" | "ASIL-D" | "ASIL_D" => Ok(Asil::D),
            other => Err(ParseAsilError(other.to_owned())),
        }
    }
}

/// The two application categories of the paper's §3.1 application model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AppKind {
    /// Strict schedule requirements: fixed activation intervals, computation
    /// deadlines, bounded jitter. Requires an RTOS-style scheduler.
    Deterministic,
    /// Relaxed scheduling requirements; may use threading and long-running
    /// asynchronous communication. Typically infotainment.
    NonDeterministic,
}

impl AppKind {
    /// `true` for [`AppKind::Deterministic`].
    pub fn is_deterministic(self) -> bool {
        matches!(self, AppKind::Deterministic)
    }
}

/// Platform-wide operating level of the degradation ladder (§3.3).
///
/// Under fault pressure the platform sheds load in criticality order:
/// non-deterministic (infotainment) functions go first, deterministic
/// control functions are protected to the end. Ordered from healthiest
/// ([`DegradationLevel::Full`]) to most degraded
/// ([`DegradationLevel::LimpHome`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// All applications run.
    #[default]
    Full,
    /// Low-criticality non-deterministic load is shed.
    Degraded,
    /// Only deterministic, safety-rated functions keep running.
    LimpHome,
}

impl DegradationLevel {
    /// All levels, healthiest first.
    pub const ALL: [DegradationLevel; 3] = [
        DegradationLevel::Full,
        DegradationLevel::Degraded,
        DegradationLevel::LimpHome,
    ];

    /// `true` if an application of `kind` at `asil` may run at this level.
    ///
    /// The shedding order protects deterministic applications: at
    /// [`DegradationLevel::Degraded`] every non-deterministic application
    /// below ASIL-B is stopped; at [`DegradationLevel::LimpHome`] all
    /// non-deterministic load is stopped and only deterministic
    /// applications rated ASIL-A or higher remain.
    pub fn admits(self, kind: AppKind, asil: Asil) -> bool {
        match self {
            DegradationLevel::Full => true,
            DegradationLevel::Degraded => kind.is_deterministic() || asil >= Asil::B,
            DegradationLevel::LimpHome => kind.is_deterministic() && asil >= Asil::A,
        }
    }
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationLevel::Full => write!(f, "full"),
            DegradationLevel::Degraded => write!(f, "degraded"),
            DegradationLevel::LimpHome => write!(f, "limp-home"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asil_ordering_matches_criticality() {
        assert!(Asil::Qm < Asil::A);
        assert!(Asil::A < Asil::B);
        assert!(Asil::B < Asil::C);
        assert!(Asil::C < Asil::D);
    }

    #[test]
    fn dependency_rule_is_monotone() {
        assert!(Asil::D.may_depend_on(Asil::D));
        assert!(!Asil::D.may_depend_on(Asil::C));
        assert!(Asil::Qm.may_depend_on(Asil::B));
        for a in Asil::ALL {
            for b in Asil::ALL {
                assert_eq!(a.may_depend_on(b), b >= a);
            }
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for a in Asil::ALL {
            assert_eq!(a.to_string().parse::<Asil>().unwrap(), a);
        }
        assert!("ASIL-E".parse::<Asil>().is_err());
        assert_eq!("d".parse::<Asil>().unwrap(), Asil::D);
    }

    #[test]
    fn test_effort_grows_with_criticality() {
        let mut last = 0.0;
        for a in Asil::ALL {
            assert!(a.test_effort_factor() > last);
            last = a.test_effort_factor();
        }
    }

    #[test]
    fn app_kind_predicates() {
        assert!(AppKind::Deterministic.is_deterministic());
        assert!(!AppKind::NonDeterministic.is_deterministic());
    }

    #[test]
    fn degradation_sheds_nda_before_da() {
        use DegradationLevel::*;
        // Full admits everything.
        for a in Asil::ALL {
            assert!(Full.admits(AppKind::Deterministic, a));
            assert!(Full.admits(AppKind::NonDeterministic, a));
        }
        // Degraded drops low-criticality NDA but keeps all DA.
        assert!(!Degraded.admits(AppKind::NonDeterministic, Asil::Qm));
        assert!(Degraded.admits(AppKind::NonDeterministic, Asil::B));
        for a in Asil::ALL {
            assert!(Degraded.admits(AppKind::Deterministic, a));
        }
        // Limp-home keeps only safety-rated DA.
        assert!(!LimpHome.admits(AppKind::NonDeterministic, Asil::D));
        assert!(!LimpHome.admits(AppKind::Deterministic, Asil::Qm));
        assert!(LimpHome.admits(AppKind::Deterministic, Asil::A));
        // The admitted set shrinks monotonically along the ladder.
        for kind in [AppKind::Deterministic, AppKind::NonDeterministic] {
            for a in Asil::ALL {
                for pair in DegradationLevel::ALL.windows(2) {
                    if pair[0].admits(kind, a) || !pair[1].admits(kind, a) {
                        continue;
                    }
                    panic!("{kind:?}/{a} admitted at {} but not {}", pair[1], pair[0]);
                }
            }
        }
    }
}
