//! Heterogeneous hardware variants and per-variant admission checks.
//!
//! A fleet is never uniform: vehicles ship with different ECU generations,
//! flash sizes, installed software and spare resources, and "Automatic
//! Platform Configuration and Software Integration for Software-Defined
//! Vehicles" (PAPERS.md) names per-variant configuration as *the* scaling
//! problem of fleet-wide campaigns. §3.2 asks the backend to test an update
//! "against the current configuration of the installing vehicle", so the
//! update master admission-checks every vehicle against its [`HwVariant`]
//! before the image is offered ([`HwVariant::admit`]):
//!
//! 1. **A/B flash** — the variant's flash must hold both the running slot
//!    and the incoming image, or the update would brick in the field;
//! 2. **configuration** — the app is installed and older than the shipped
//!    version, the staged overlap (both versions resident) fits the free
//!    memory and CPU headroom, and every dependency is installed at a
//!    compatible version.
//!
//! A rejected vehicle is never offered the image, let alone flashed.

use dynplat_common::rng::Rng;
use dynplat_common::time::SimDuration;
use dynplat_common::AppId;
use dynplat_security::package::Version;

/// The OTA image one campaign distributes, and what it requires of the
/// installing vehicle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ImageSpec {
    /// Image size in KiB.
    pub size_kib: u64,
    /// Chunks the download is split into (each chunk is retried
    /// independently under message loss).
    pub chunks: u32,
    /// The application the image updates.
    pub app: AppId,
    /// The version the image ships.
    pub version: Version,
    /// Memory needed *during* the staged update (both versions resident),
    /// KiB.
    pub staged_memory_kib: u32,
    /// CPU utilization of the app's task (needed twice during the overlap).
    pub utilization: f64,
    /// Provider versions the new version depends on (`app`, minimum
    /// compatible version).
    pub depends_on: &'static [(AppId, Version)],
}

impl ImageSpec {
    /// A mid-size full-platform image: 96 MiB in 32 chunks, shipping app 1
    /// at 2.0.0 against runtime app 2 ≥ 1.2.0, with a 32 MiB / 10 % staged
    /// overlap that every [`standard_mix`] variant has room for.
    pub fn standard() -> Self {
        ImageSpec {
            size_kib: 96 * 1024,
            chunks: 32,
            app: AppId(1),
            version: Version::new(2, 0, 0),
            staged_memory_kib: 32 * 1024,
            utilization: 0.1,
            depends_on: STANDARD_DEPENDS,
        }
    }

    /// Size of one download chunk in KiB.
    pub fn chunk_kib(&self) -> f64 {
        self.size_kib as f64 / f64::from(self.chunks.max(1))
    }
}

/// What [`ImageSpec::standard`] is built against: runtime app 2 ≥ 1.2.0.
const STANDARD_DEPENDS: &[(AppId, Version)] = &[(AppId(2), Version::new(1, 2, 0))];

/// Why admission refused a vehicle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Reject {
    /// The flash cannot hold an A/B double image.
    Flash,
    /// The app to update is not installed at all.
    NotInstalled,
    /// The installed version is already at or past the shipped one.
    AlreadyCurrent,
    /// Not enough free memory for the staged overlap.
    InsufficientMemory,
    /// Not enough CPU headroom for the overlap.
    InsufficientCpu,
    /// A dependency is missing or not at a compatible version.
    DependencyUnsatisfied(AppId),
}

/// One hardware variant of the fleet: the resources, installed software and
/// failure behavior shared by every vehicle built with this configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HwVariant {
    /// Variant label (stable, appears in reports).
    pub name: &'static str,
    /// Update-partition flash in KiB; admission requires room for an A/B
    /// double image.
    pub flash_kib: u64,
    /// OTA downlink bandwidth in KiB/s.
    pub download_kib_per_s: u64,
    /// Base install time of one image.
    pub install: SimDuration,
    /// Post-install health-check (verification) run time.
    pub verify: SimDuration,
    /// Probability that verification fails on a *good* image (flaky
    /// sensors, marginal flash cells) — the noise floor the wave gate must
    /// not trip on.
    pub good_image_verify_failure: f64,
    /// Relative weight of this variant in the fleet mix.
    pub share: u32,
    /// Installed applications and their versions.
    pub installed: &'static [(AppId, Version)],
    /// Free RAM on the target ECU, KiB.
    pub free_memory_kib: u32,
    /// Remaining deterministic CPU headroom on the target ECU (0..1).
    pub cpu_headroom: f64,
}

impl HwVariant {
    /// Admission check. Flash comes first: the variant must hold the image
    /// next to the running slot (A/B update — the fleet-scale analogue of
    /// the staged update's "double resources during the overlap", §3.2).
    /// Then the configuration: the app is installed below the shipped
    /// version, the overlap fits memory and CPU headroom (old and new task
    /// side by side), and every dependency is installed at a compatible
    /// version.
    pub fn admit(&self, image: &ImageSpec) -> Result<(), Reject> {
        if self.flash_kib < image.size_kib.saturating_mul(2) {
            return Err(Reject::Flash);
        }
        let current = self.version_of(image.app).ok_or(Reject::NotInstalled)?;
        if current >= image.version {
            return Err(Reject::AlreadyCurrent);
        }
        if self.free_memory_kib < image.staged_memory_kib {
            return Err(Reject::InsufficientMemory);
        }
        if self.cpu_headroom < image.utilization {
            return Err(Reject::InsufficientCpu);
        }
        for &(dep, min_version) in image.depends_on {
            match self.version_of(dep) {
                Some(v) if v.is_compatible_with(min_version) => {}
                _ => return Err(Reject::DependencyUnsatisfied(dep)),
            }
        }
        Ok(())
    }

    /// The installed version of `app`, if any.
    fn version_of(&self, app: AppId) -> Option<Version> {
        self.installed
            .iter()
            .find(|&&(a, _)| a == app)
            .map(|&(_, v)| v)
    }
}

/// What every [`standard_mix`] variant runs today: app 1 at 1.4.0 on
/// runtime app 2 at 1.3.0.
const STANDARD_INSTALLED: &[(AppId, Version)] = &[
    (AppId(1), Version::new(1, 4, 0)),
    (AppId(2), Version::new(1, 3, 0)),
];

/// The standard four-variant fleet mix: three admissible ECU generations
/// with different bandwidth/flash/noise trade-offs, plus a legacy variant
/// whose flash cannot hold an A/B image of [`ImageSpec::standard`] — every
/// campaign over this mix exercises per-variant admission rejection. All
/// four pass the configuration checks, so only the legacy variant is
/// rejected, for flash.
pub fn standard_mix() -> Vec<HwVariant> {
    vec![
        HwVariant {
            name: "lowend-cell",
            flash_kib: 256 * 1024,
            download_kib_per_s: 2 * 1024,
            install: SimDuration::from_secs(40),
            verify: SimDuration::from_secs(10),
            good_image_verify_failure: 0.004,
            share: 3,
            installed: STANDARD_INSTALLED,
            free_memory_kib: 48 * 1024,
            cpu_headroom: 0.25,
        },
        HwVariant {
            name: "domain-eth",
            flash_kib: 1024 * 1024,
            download_kib_per_s: 8 * 1024,
            install: SimDuration::from_secs(25),
            verify: SimDuration::from_secs(8),
            good_image_verify_failure: 0.002,
            share: 5,
            installed: STANDARD_INSTALLED,
            free_memory_kib: 256 * 1024,
            cpu_headroom: 0.4,
        },
        HwVariant {
            name: "hpc-5g",
            flash_kib: 4 * 1024 * 1024,
            download_kib_per_s: 32 * 1024,
            install: SimDuration::from_secs(15),
            verify: SimDuration::from_secs(6),
            good_image_verify_failure: 0.001,
            share: 2,
            installed: STANDARD_INSTALLED,
            free_memory_kib: 1024 * 1024,
            cpu_headroom: 0.6,
        },
        HwVariant {
            name: "legacy-small-flash",
            flash_kib: 128 * 1024,
            download_kib_per_s: 1024,
            install: SimDuration::from_secs(60),
            verify: SimDuration::from_secs(12),
            good_image_verify_failure: 0.006,
            share: 2,
            installed: STANDARD_INSTALLED,
            free_memory_kib: 48 * 1024,
            cpu_headroom: 0.2,
        },
    ]
}

/// Picks a variant index from `mix` by share weight, consuming exactly one
/// draw from `rng`. Deterministic given the rng state, so a per-vehicle
/// stream always maps a vehicle to the same variant regardless of which
/// shard simulates it.
///
/// # Panics
///
/// Panics if `mix` is empty or all shares are zero.
pub fn pick_variant<R: Rng>(mix: &[HwVariant], rng: &mut R) -> usize {
    let total: u64 = mix.iter().map(|v| u64::from(v.share)).sum();
    assert!(total > 0, "variant mix must have positive total share");
    let mut ticket = rng.gen_range(0..total);
    for (i, v) in mix.iter().enumerate() {
        let share = u64::from(v.share);
        if ticket < share {
            return i;
        }
        ticket -= share;
    }
    unreachable!("ticket exhausts the total share");
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::rng::seeded_rng;

    /// Admission of the standard image by the `domain-eth` variant, after
    /// `tweak` edits either side.
    fn admit(tweak: fn(&mut HwVariant, &mut ImageSpec)) -> Result<(), Reject> {
        let (mut variant, mut image) = (standard_mix()[1], ImageSpec::standard());
        tweak(&mut variant, &mut image);
        variant.admit(&image)
    }

    #[test]
    fn standard_mix_splits_admission() {
        let image = ImageSpec::standard();
        let verdicts: Vec<(&str, Result<(), Reject>)> = standard_mix()
            .iter()
            .map(|v| (v.name, v.admit(&image)))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("lowend-cell", Ok(())),
                ("domain-eth", Ok(())),
                ("hpc-5g", Ok(())),
                ("legacy-small-flash", Err(Reject::Flash)),
            ]
        );
    }

    #[test]
    fn backend_validation_catches_every_precondition() {
        assert_eq!(admit(|_, _| {}), Ok(()));
        assert_eq!(admit(|v, _| v.flash_kib = 1024), Err(Reject::Flash));
        assert_eq!(admit(|v, _| v.installed = &[]), Err(Reject::NotInstalled));
        let current = admit(|_, i| i.version = Version::new(1, 4, 0));
        assert_eq!(current, Err(Reject::AlreadyCurrent));
        let tight_mem = admit(|v, i| v.free_memory_kib = i.staged_memory_kib - 1);
        assert_eq!(tight_mem, Err(Reject::InsufficientMemory));
        let tight_cpu = admit(|v, _| v.cpu_headroom = 0.05);
        assert_eq!(tight_cpu, Err(Reject::InsufficientCpu));
        // Flash comes first: a variant failing every check reads `Flash`.
        let hopeless = admit(|v, _| {
            *v = HwVariant {
                flash_kib: 0,
                installed: &[],
                free_memory_kib: 0,
                cpu_headroom: 0.0,
                ..*v
            }
        });
        assert_eq!(hopeless, Err(Reject::Flash));
    }

    #[test]
    fn dependency_versions_are_checked_per_vehicle() {
        // The variant runs runtime app 2 at 1.3.0.
        let unsatisfied = |app| Err(Reject::DependencyUnsatisfied(AppId(app)));
        let exact = admit(|_, i| i.depends_on = const { &[(AppId(2), Version::new(1, 3, 0))] });
        assert_eq!(exact, Ok(()));
        let missing = admit(|_, i| i.depends_on = const { &[(AppId(9), Version::new(1, 0, 0))] });
        assert_eq!(missing, unsatisfied(9));
        let too_old = admit(|_, i| i.depends_on = const { &[(AppId(2), Version::new(1, 4, 0))] });
        assert_eq!(too_old, unsatisfied(2));
        // A major-version break fails too: 1.3 is not compatible with >= 0.9.
        let major = admit(|_, i| i.depends_on = const { &[(AppId(2), Version::new(0, 9, 0))] });
        assert_eq!(major, unsatisfied(2));
    }

    #[test]
    fn pick_variant_tracks_shares() {
        let mix = standard_mix();
        let total: u64 = mix.iter().map(|v| u64::from(v.share)).sum();
        let mut rng = seeded_rng(7);
        let n = 24_000usize;
        let mut counts = vec![0u64; mix.len()];
        for _ in 0..n {
            counts[pick_variant(&mix, &mut rng)] += 1;
        }
        for (i, v) in mix.iter().enumerate() {
            let expected = n as f64 * f64::from(v.share) / total as f64;
            let got = counts[i] as f64;
            assert!(
                (got - expected).abs() < expected * 0.15,
                "{}: {got} picks vs expected {expected}",
                v.name
            );
        }
    }

    #[test]
    fn pick_variant_is_deterministic_per_stream() {
        let mix = standard_mix();
        let a = pick_variant(&mix, &mut seeded_rng(99));
        let b = pick_variant(&mix, &mut seeded_rng(99));
        assert_eq!(a, b);
    }

    #[test]
    fn chunking_covers_the_image() {
        let image = ImageSpec::standard();
        let covered = image.chunk_kib() * f64::from(image.chunks);
        assert!((covered - image.size_kib as f64).abs() < 1e-6);
    }
}
