//! Test-level cost models.

use dynplat_common::time::SimDuration;
use std::fmt;

/// The X in XiL: what artifact is in the loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TestLevel {
    /// Model in the loop: the control *model* simulated on a PC.
    Mil,
    /// Software in the loop: compiled production code on a virtual control
    /// unit, still PC-hosted.
    Sil,
    /// Hardware in the loop: the real ECU, real time, flashed images.
    Hil,
}

impl TestLevel {
    /// All levels, earliest development stage first.
    pub const ALL: [TestLevel; 3] = [TestLevel::Mil, TestLevel::Sil, TestLevel::Hil];

    /// Wall-clock cost of executing one 1 ms control step at this level.
    ///
    /// MiL and SiL exploit "the full potential of computing power of a PC"
    /// and run much faster than real time; HiL is bound to real time.
    pub fn step_cost(self) -> SimDuration {
        match self {
            TestLevel::Mil => SimDuration::from_micros(20), // 50x real time
            TestLevel::Sil => SimDuration::from_micros(100), // 10x real time
            TestLevel::Hil => SimDuration::from_millis(1),  // real time
        }
    }

    /// Per-run setup cost: build/load at MiL/SiL, flash programming at HiL.
    pub fn setup_cost(self) -> SimDuration {
        match self {
            TestLevel::Mil => SimDuration::from_secs(1),
            TestLevel::Sil => SimDuration::from_secs(15), // compile + link
            TestLevel::Hil => SimDuration::from_secs(240), // flash + boot
        }
    }
}

impl fmt::Display for TestLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestLevel::Mil => write!(f, "MiL"),
            TestLevel::Sil => write!(f, "SiL"),
            TestLevel::Hil => write!(f, "HiL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earlier_levels_are_cheaper() {
        assert!(TestLevel::Mil.step_cost() < TestLevel::Sil.step_cost());
        assert!(TestLevel::Sil.step_cost() < TestLevel::Hil.step_cost());
        assert!(TestLevel::Mil.setup_cost() < TestLevel::Sil.setup_cost());
        assert!(TestLevel::Sil.setup_cost() < TestLevel::Hil.setup_cost());
    }

    #[test]
    fn display_names() {
        assert_eq!(TestLevel::Mil.to_string(), "MiL");
        assert_eq!(TestLevel::Hil.to_string(), "HiL");
    }
}
