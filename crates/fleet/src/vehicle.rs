//! The per-vehicle OTA state machine, in closed form.
//!
//! A fleet campaign cannot afford a full discrete-event kernel per vehicle
//! — at 10⁵–10⁶ vehicles the per-vehicle cost must stay at "a few dozen
//! RNG draws plus arithmetic". [`simulate_vehicle`] therefore walks the
//! admission → download → install → verify pipeline analytically on the
//! simulated clock: chunked download with per-chunk loss retries and delay
//! spikes, region-bus partitions stalling progress (the straggler tail),
//! image corruption forcing re-fetches, and a final verification draw.
//!
//! **Every stochastic decision draws from a per-vehicle stream** derived as
//! `split_seed(split_seed(campaign_seed, VEHICLE_STREAM), vehicle_id)`.
//! A shard's randomness is exactly the union of its vehicles' streams and
//! nothing else, which is what makes the merged campaign byte-identical
//! across shard counts: vehicle identity, not shard identity, addresses
//! the entropy.
//!
//! **Cost.** Each probability is a [`Bernoulli`] coin built once per
//! vehicle: one integer compare per draw, deciding exactly as the float
//! unit-draw test `u < p` would, so the coin choice never shows in an
//! outcome. The chunk loop asks the fault plan for partition clearance
//! only while the clock is below the region's
//! [`FaultPlan::partition_horizon`](dynplat_faults::FaultPlan::partition_horizon):
//! past it, clearance is the identity.

use crate::campaign::CampaignSpec;
use crate::variant::{pick_variant, Reject};
use dynplat_common::rng::{seeded_rng, split_seed, truncated_normal_factor, Bernoulli, Rng};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{BusId, VehicleId};

/// Stream label separating per-vehicle streams from any other use of the
/// campaign seed.
const VEHICLE_STREAM: u64 = 0x0F1E_E7CA_A5E5_0001;

/// A chunk lost this many times in a row is handed to the resumptive
/// transport's slow path; the model stops burning draws on it and charges
/// one full backoff instead. Keeps the per-vehicle draw count bounded even
/// at drop rates near 1.
const MAX_CHUNK_RETRIES: u32 = 16;

/// Terminal state of one vehicle in one campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VehicleVerdict {
    /// Admission refused: the variant's flash cannot hold an A/B image, or
    /// its configuration does not fit the update. Never offered the image.
    Rejected(Reject),
    /// The vehicle was unreachable when its wave opened (parked offline,
    /// no connectivity); it is skipped, not failed.
    Offline,
    /// Downloaded, installed and verified — running the new version.
    Updated,
    /// Verification failed (or the image corrupted twice); the vehicle
    /// rolled back to its previous version on its own.
    VerifyFailed,
    /// Verified fine, but the wave gate later failed the whole wave and
    /// the update master rolled this vehicle back. Assigned by the master,
    /// never by the per-vehicle simulation.
    WaveRolledBack,
}

/// What happened to one vehicle, on the simulated clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VehicleOutcome {
    /// The vehicle.
    pub vehicle: VehicleId,
    /// Index into the campaign's variant mix.
    pub variant: usize,
    /// The region bus this vehicle downloads over (partition target).
    pub region: BusId,
    /// Terminal state.
    pub verdict: VehicleVerdict,
    /// When the update master offered the image (wave start + stagger).
    pub started: SimTime,
    /// When the chunked download finished (equals `started` for vehicles
    /// that never downloaded) — splits the pipeline into a download stage
    /// and a finalize (integrity/install/verify) stage for the per-stage
    /// telemetry sketches.
    pub downloaded: SimTime,
    /// When the vehicle reached its terminal state.
    pub completed: SimTime,
    /// Time lost waiting out region partitions — the straggler cause.
    pub stall: SimDuration,
    /// Chunk retransmissions due to message loss.
    pub retries: u32,
}

impl VehicleOutcome {
    /// Offer-to-terminal duration.
    pub fn duration(&self) -> SimDuration {
        self.completed.saturating_since(self.started)
    }

    /// Offer-to-downloaded duration (zero for vehicles that never
    /// downloaded).
    pub fn download_time(&self) -> SimDuration {
        self.downloaded.saturating_since(self.started)
    }

    /// Downloaded-to-terminal duration: integrity re-fetch, install and
    /// verification.
    pub fn finalize_time(&self) -> SimDuration {
        self.completed.saturating_since(self.downloaded)
    }

    /// `true` for the verdicts that passed admission and ran the full
    /// download/install/verify pipeline.
    pub fn admitted(&self) -> bool {
        !matches!(
            self.verdict,
            VehicleVerdict::Rejected(_) | VehicleVerdict::Offline
        )
    }
}

/// The region bus a vehicle downloads over. Regions tile the fleet
/// round-robin so every partition window hits a deterministic, evenly
/// spread subset of each wave.
pub fn region_of(spec: &CampaignSpec, vehicle: VehicleId) -> BusId {
    BusId((vehicle.raw() % u32::from(spec.regions.max(1))) as u16)
}

/// Runs one vehicle through the campaign pipeline, starting at its wave's
/// `wave_start`. Pure function of `(spec, vehicle, wave_start)` — no shard
/// state enters.
///
/// # Panics
///
/// Panics if a probability the vehicle draws against (the spec's
/// `offline_rate`, the plan's drop, delay-spike or corruption rate, its
/// variant's `good_image_verify_failure`) is outside `[0, 1]`, or the mix
/// has no positive share. [`crate::CampaignSpec::validate`] rules all of
/// these out up front.
pub fn simulate_vehicle(
    spec: &CampaignSpec,
    vehicle: VehicleId,
    wave_start: SimTime,
) -> VehicleOutcome {
    let mut rng = seeded_rng(split_seed(
        split_seed(spec.seed, VEHICLE_STREAM),
        u64::from(vehicle.raw()),
    ));
    let variant_idx = pick_variant(&spec.mix, &mut rng);
    let variant = &spec.mix[variant_idx];
    let region = region_of(spec, vehicle);

    // Offer instant: the update master spreads each wave's offers over
    // `wave_spread` so the backend never sees the whole wave at once.
    let stagger = SimDuration::from_nanos(rng.gen_range(0..spec.wave_spread.as_nanos().max(1)));
    let started = wave_start + stagger;

    let done = |verdict, downloaded, completed, stall, retries| VehicleOutcome {
        vehicle,
        variant: variant_idx,
        region,
        verdict,
        started,
        downloaded,
        completed,
        stall,
        retries,
    };

    // Admission: per-variant flash and configuration check, then
    // reachability.
    if let Err(reject) = variant.admit(&spec.image) {
        return done(
            VehicleVerdict::Rejected(reject),
            started,
            started,
            SimDuration::ZERO,
            0,
        );
    }
    let offline = Bernoulli::new(spec.offline_rate);
    if !offline.is_never() && offline.sample(&mut rng) {
        return done(
            VehicleVerdict::Offline,
            started,
            started,
            SimDuration::ZERO,
            0,
        );
    }

    // Chunked download under the fault plan: partitions stall progress,
    // loss retransmits chunks, delay spikes stretch individual fetches.
    // `t` only grows, so once it passes the region's partition horizon no
    // window can stall it again and the partition scan stops. A coin that
    // can never land is skipped without a draw: a zero rate draws nothing.
    let plan = &spec.plan;
    let chunk_time =
        SimDuration::from_secs_f64(spec.image.chunk_kib() / variant.download_kib_per_s as f64);
    let horizon = plan.partition_horizon(region);
    let drop = Bernoulli::new(plan.drop_rate);
    let spike = Bernoulli::new(plan.delay_spike_rate);
    let mut t = started;
    let mut stall = SimDuration::ZERO;
    let mut retries = 0u32;
    for _chunk in 0..spec.image.chunks {
        if t < horizon {
            let clear = plan.clear_of_partitions(region, t);
            stall += clear.saturating_since(t);
            t = clear;
        }
        if !drop.is_never() {
            let mut lost = 0u32;
            while lost < MAX_CHUNK_RETRIES && drop.sample(&mut rng) {
                lost += 1;
                t += chunk_time; // the lost transfer still burned air time
            }
            retries += lost;
        }
        if !spike.is_never() && spike.sample(&mut rng) {
            t += plan.delay_spike.mul_f64(rng.gen::<f64>());
        }
        t += chunk_time;
    }
    let downloaded = t;

    // Integrity check at install: a corrupted image is re-fetched once
    // (differential re-download, ~¼ of the image); corrupted twice, the
    // vehicle gives up and rolls back on its own.
    let corrupt = Bernoulli::new(plan.corrupt_rate);
    if !corrupt.is_never() && corrupt.sample(&mut rng) {
        t += downloaded.saturating_since(started).mul_f64(0.25);
        if corrupt.sample(&mut rng) {
            return done(VehicleVerdict::VerifyFailed, downloaded, t, stall, retries);
        }
    }

    // Install with per-vehicle jitter, then the post-install health check.
    t += variant
        .install
        .mul_f64(truncated_normal_factor(&mut rng, 0.15, 0.6, 1.8));
    t += variant.verify;
    let verdict = if rng.gen_bool(variant.good_image_verify_failure) {
        VehicleVerdict::VerifyFailed
    } else {
        VehicleVerdict::Updated
    };
    done(verdict, downloaded, t, stall, retries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignSpec, WaveGate};
    use crate::variant::{standard_mix, ImageSpec};
    use dynplat_faults::FaultPlan;

    fn spec(plan: FaultPlan) -> CampaignSpec {
        CampaignSpec {
            seed: 0xE15,
            vehicles: 1_000,
            regions: 8,
            offline_rate: 0.02,
            mix: standard_mix(),
            image: ImageSpec::standard(),
            waves: vec![0.25, 0.75],
            wave_spread: SimDuration::from_secs(60),
            soak: SimDuration::from_secs(5),
            gate: WaveGate::default(),
            plan,
        }
    }

    #[test]
    fn outcomes_are_deterministic_per_vehicle() {
        let s = spec(FaultPlan::quiet(0xE15));
        for v in 0..64u32 {
            let a = simulate_vehicle(&s, VehicleId(v), SimTime::ZERO);
            let b = simulate_vehicle(&s, VehicleId(v), SimTime::ZERO);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn quiet_plan_yields_no_stall_or_retries() {
        let s = spec(FaultPlan::quiet(0xE15));
        for v in 0..256u32 {
            let o = simulate_vehicle(&s, VehicleId(v), SimTime::ZERO);
            assert_eq!(o.stall, SimDuration::ZERO);
            assert_eq!(o.retries, 0);
            assert!(o.completed >= o.started);
        }
    }

    #[test]
    fn partition_stalls_only_its_region() {
        let quiet = spec(FaultPlan::quiet(0xE15));
        let window_from = SimTime::from_secs(0);
        let window_until = SimTime::from_secs(600);
        let faulted = spec(FaultPlan::quiet(0xE15).partition(BusId(3), window_from, window_until));
        let mut stalled = 0u32;
        for v in 0..512u32 {
            let q = simulate_vehicle(&quiet, VehicleId(v), SimTime::ZERO);
            let f = simulate_vehicle(&faulted, VehicleId(v), SimTime::ZERO);
            if f.region == BusId(3) && f.admitted() {
                assert!(f.stall > SimDuration::ZERO, "veh{v} should have stalled");
                assert!(f.completed > q.completed);
                stalled += 1;
            } else {
                assert_eq!(f.stall, SimDuration::ZERO, "veh{v} is outside the region");
            }
        }
        assert!(stalled > 20, "the partitioned region must be populated");
    }

    #[test]
    fn corruption_raises_verify_failures() {
        let quiet = spec(FaultPlan::quiet(0xE15));
        let broken = spec(FaultPlan::quiet(0xE15).with_message_faults(0.0, 0.4, 0.0));
        let fail = |s: &CampaignSpec| {
            (0..2_000u32)
                .map(|v| simulate_vehicle(s, VehicleId(v), SimTime::ZERO))
                .filter(|o| o.verdict == VehicleVerdict::VerifyFailed)
                .count()
        };
        let (q, b) = (fail(&quiet), fail(&broken));
        assert!(
            b > q + 100,
            "double corruption must dominate failures: quiet {q}, broken {b}"
        );
    }

    #[test]
    fn loss_adds_retries_and_time() {
        let quiet = spec(FaultPlan::quiet(0xE15));
        let lossy = spec(FaultPlan::quiet(0xE15).with_message_faults(0.3, 0.0, 0.0));
        // Loss shifts the whole distribution right, but a single vehicle
        // can still finish earlier under loss (its install-jitter draw
        // differs between the arms), so compare aggregates.
        let mut retries = 0u64;
        let mut quiet_total = 0u64;
        let mut lossy_total = 0u64;
        for v in 0..256u32 {
            let q = simulate_vehicle(&quiet, VehicleId(v), SimTime::ZERO);
            let l = simulate_vehicle(&lossy, VehicleId(v), SimTime::ZERO);
            if l.admitted() && q.admitted() {
                quiet_total += q.duration().as_nanos();
                lossy_total += l.duration().as_nanos();
                retries += u64::from(l.retries);
            }
        }
        assert!(
            lossy_total > quiet_total,
            "aggregate completion must slow down under loss"
        );
        assert!(retries > 500, "30% loss over 32 chunks must retransmit");
    }
}
