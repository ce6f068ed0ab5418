//! The sharded fleet engine: one sim kernel per shard, merge at the master.
//!
//! A 10⁵–10⁶-vehicle campaign does not fit one sequential kernel, so the
//! fleet is split across persistent worker threads ("shards"), each running
//! the closed-form vehicle kernel over its slice of every wave. Shards are
//! pure workers: a vehicle's entire stochastic behavior comes from its
//! per-vehicle stream (see [`crate::vehicle`]), so which shard simulates it
//! is invisible in the results. Each shard owns one contiguous id slice of
//! the wave, so replies collected in shard-index order are already in
//! vehicle-id order and the merge is a concatenation. Each shard also
//! sorts its own admitted vehicles' gate samples, each packed into one
//! `u64` that orders like the `(completed, failed)` pair, leaving the
//! master one k-way merge of words. A shard folds its slice's counters
//! and stage sketches in one [`ShardMetrics::from_outcomes`] pass over
//! dense histograms. Both merges are byte-identical across shard counts,
//! which is what E15 and the root `e15_fleet_campaign` test pin.

use crate::campaign::CampaignSpec;
use crate::variant::Reject;
use crate::vehicle::{simulate_vehicle, VehicleOutcome, VehicleVerdict};
use dynplat_common::time::SimTime;
use dynplat_common::{ShardId, VehicleId};
use dynplat_obs::{LocalHistogram, Sketch};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Per-shard pipeline counters and stage-latency sketches, merged across
/// shards by the master. [`Sketch::merge`] is associative and commutative,
/// so the merged distributions — like the counters — are byte-identical
/// whatever the shard count.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Vehicles this shard ran through the pipeline.
    pub simulated: u64,
    /// Vehicles that passed admission.
    pub admitted: u64,
    /// Vehicles rejected at admission for flash (too small for A/B).
    pub rejected_flash: u64,
    /// Vehicles rejected at admission for their configuration (app
    /// missing or current, overlap memory/CPU, dependencies).
    pub rejected_config: u64,
    /// Vehicles unreachable at wave open.
    pub offline: u64,
    /// Vehicles that verified the new version.
    pub updated: u64,
    /// Vehicles whose verification failed.
    pub verify_failed: u64,
    /// Chunk retransmissions across the shard's vehicles.
    pub retries: u64,
    /// Total time the shard's vehicles spent stalled on partitions, in ns.
    pub stall_ns: u64,
    /// Download-stage durations (ms) of admitted vehicles.
    pub download_ms: Sketch,
    /// Finalize-stage (integrity/install/verify) durations (ms) of
    /// admitted vehicles.
    pub finalize_ms: Sketch,
    /// Partition-stall durations (ms) of admitted vehicles.
    pub stall_ms: Sketch,
    /// Offer-to-terminal durations (ms) of admitted vehicles.
    pub e2e_ms: Sketch,
}

impl ShardMetrics {
    /// The counters of `outcomes` and, for admitted vehicles (the ones
    /// that ran the pipeline), their stage sketches. Each stage is
    /// recorded into a dense [`LocalHistogram`] and converted once, which
    /// equals recording every outcome into the sparse [`Sketch`] but
    /// skips a binary search per observation.
    pub fn from_outcomes(outcomes: &[VehicleOutcome]) -> Self {
        let mut m = ShardMetrics::default();
        let [mut download, mut finalize, mut stall, mut e2e] = <[LocalHistogram; 4]>::default();
        for outcome in outcomes {
            match outcome.verdict {
                VehicleVerdict::Rejected(Reject::Flash) => m.rejected_flash += 1,
                VehicleVerdict::Rejected(_) => m.rejected_config += 1,
                VehicleVerdict::Offline => m.offline += 1,
                VehicleVerdict::Updated | VehicleVerdict::WaveRolledBack => m.updated += 1,
                VehicleVerdict::VerifyFailed => m.verify_failed += 1,
            }
            m.retries += u64::from(outcome.retries);
            m.stall_ns += outcome.stall.as_nanos();
            if outcome.admitted() {
                download.record(outcome.download_time().as_millis());
                finalize.record(outcome.finalize_time().as_millis());
                stall.record(outcome.stall.as_millis());
                e2e.record(outcome.duration().as_millis());
            }
        }
        m.simulated = outcomes.len() as u64;
        m.admitted = m.updated + m.verify_failed;
        m.download_ms = download.to_sketch();
        m.finalize_ms = finalize.to_sketch();
        m.stall_ms = stall.to_sketch();
        m.e2e_ms = e2e.to_sketch();
        m
    }

    /// Merges another shard's counters and sketches into this one.
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.simulated += other.simulated;
        self.admitted += other.admitted;
        self.rejected_flash += other.rejected_flash;
        self.rejected_config += other.rejected_config;
        self.offline += other.offline;
        self.updated += other.updated;
        self.verify_failed += other.verify_failed;
        self.retries += other.retries;
        self.stall_ns += other.stall_ns;
        self.download_ms.merge(&other.download_ms);
        self.finalize_ms.merge(&other.finalize_ms);
        self.stall_ms.merge(&other.stall_ms);
        self.e2e_ms.merge(&other.e2e_ms);
    }

    /// `true` iff the counters conserve vehicles: every simulated vehicle
    /// is admitted, rejected (flash or config) or offline, every admitted
    /// vehicle either updated or failed verification, and every stage
    /// sketch holds exactly one observation per admitted vehicle.
    pub fn conserves(&self) -> bool {
        self.admitted + self.rejected_flash + self.rejected_config + self.offline == self.simulated
            && self.updated + self.verify_failed == self.admitted
            && self.download_ms.count() == self.admitted
            && self.finalize_ms.count() == self.admitted
            && self.stall_ms.count() == self.admitted
            && self.e2e_ms.count() == self.admitted
    }
}

/// One verification sample of the wave gate: an admitted vehicle's
/// completion instant and whether its verification failed, packed as
/// `(completed_ns << 1) | failed`. The instant fits in 63 bits, so the
/// `u64` order is the `(completed, failed)` tuple order, and sorting or
/// merging samples compares one word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct GateSample(u64);

impl GateSample {
    /// Packs one sample.
    ///
    /// # Panics
    ///
    /// Panics if `completed` is 2⁶³ ns (≈ 292 years) or later.
    pub(crate) fn new(completed: SimTime, failed: bool) -> Self {
        let ns = completed.as_nanos();
        assert!(ns < 1 << 63, "gate sample at {ns} ns does not fit 63 bits");
        GateSample(ns << 1 | u64::from(failed))
    }

    /// The vehicle's completion instant.
    pub(crate) fn at(self) -> SimTime {
        SimTime::from_nanos(self.0 >> 1)
    }

    /// `true` if the vehicle's verification failed.
    pub(crate) fn failed(self) -> bool {
        self.0 & 1 == 1
    }
}

/// Command from the master to one shard worker.
enum ShardCmd {
    /// Simulate this shard's slice of wave `[lo, hi)` starting at `start`
    /// into the empty buffers, which the master sized to the slice.
    Wave {
        wave: u32,
        lo: u32,
        hi: u32,
        start: SimTime,
        outcomes: Vec<VehicleOutcome>,
        gate: Vec<GateSample>,
    },
    /// Drain and exit.
    Shutdown,
}

/// One shard's reply for one wave.
struct WaveBatch {
    shard: ShardId,
    wave: u32,
    /// The slice's outcomes, in vehicle-id order.
    outcomes: Vec<VehicleOutcome>,
    /// The slice's admitted vehicles as gate samples, sorted.
    gate: Vec<GateSample>,
    metrics: ShardMetrics,
}

struct ShardWorker {
    cmds: Sender<ShardCmd>,
    replies: Receiver<WaveBatch>,
    handle: Option<JoinHandle<()>>,
}

/// A pool of persistent shard workers, one sim kernel per thread.
///
/// Shard `k` of `s` simulates the contiguous slice
/// `[lo + n·k/s, lo + n·(k+1)/s)` of a wave `[lo, hi)` of `n` vehicles, so
/// the slices tile the wave in shard order and its merge is a
/// concatenation. The pool lives for the whole campaign; waves are
/// dispatched over channels and merged in shard order.
pub struct ShardPool {
    workers: Vec<ShardWorker>,
}

impl ShardPool {
    /// Spawns `shards` workers over the campaign spec.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn spawn(spec: Arc<CampaignSpec>, shards: usize) -> Self {
        assert!(shards > 0, "a fleet needs at least one shard");
        let workers = (0..shards)
            .map(|idx| {
                let spec = Arc::clone(&spec);
                let (cmd_tx, cmd_rx) = channel::<ShardCmd>();
                let (reply_tx, reply_rx) = channel::<WaveBatch>();
                let shard = ShardId(idx as u16);
                let handle = std::thread::Builder::new()
                    .name(format!("fleet-shard-{idx}"))
                    .spawn(move || shard_main(&spec, shard, shards, &cmd_rx, &reply_tx))
                    .expect("spawn fleet shard thread");
                ShardWorker {
                    cmds: cmd_tx,
                    replies: reply_rx,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool { workers }
    }

    /// Runs wave `[lo, hi)` across all shards and returns the canonical
    /// merge: outcomes in vehicle-id order plus summed counters. The
    /// result is independent of the shard count.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, or if a shard worker died.
    pub fn run_wave(
        &mut self,
        wave: u32,
        lo: u32,
        hi: u32,
        start: SimTime,
    ) -> (Vec<VehicleOutcome>, ShardMetrics) {
        let mut outcomes = Vec::new();
        let metrics = self.run_wave_into(wave, lo, hi, start, &mut outcomes, None);
        (outcomes, metrics)
    }

    /// [`ShardPool::run_wave`], appending the wave's outcomes to
    /// `outcomes` in vehicle-id order. With `gate`, the buffer is
    /// overwritten with the wave's sorted gate stream: the shards' sorted
    /// streams, k-way merged.
    pub(crate) fn run_wave_into(
        &mut self,
        wave: u32,
        lo: u32,
        hi: u32,
        start: SimTime,
        outcomes: &mut Vec<VehicleOutcome>,
        gate: Option<&mut Vec<GateSample>>,
    ) -> ShardMetrics {
        assert!(
            lo <= hi,
            "wave {wave} range [{lo}, {hi}) is inverted: lo must not exceed hi"
        );
        // The master allocates the buffers it frees after the merge: freed
        // here, a worker-allocated buffer would stay cached in the worker
        // thread's allocator arena and hold peak RSS up by a wave's worth
        // of outcomes.
        let shards = self.workers.len();
        for (idx, worker) in self.workers.iter().enumerate() {
            let (first, last) = slice_of(lo, hi, idx, shards);
            let len = (last - first) as usize;
            worker
                .cmds
                .send(ShardCmd::Wave {
                    wave,
                    lo,
                    hi,
                    start,
                    outcomes: Vec::with_capacity(len),
                    gate: Vec::with_capacity(len),
                })
                .expect("fleet shard hung up before the wave was dispatched");
        }
        outcomes.reserve((hi - lo) as usize);
        let mut streams = Vec::with_capacity(shards);
        let mut metrics = ShardMetrics::default();
        for (idx, worker) in self.workers.iter().enumerate() {
            let mut batch = worker
                .replies
                .recv()
                .expect("fleet shard died mid-wave (panicked worker?)");
            debug_assert_eq!(batch.shard, ShardId(idx as u16));
            debug_assert_eq!(batch.wave, wave);
            metrics.merge(&batch.metrics);
            outcomes.append(&mut batch.outcomes);
            streams.push(batch.gate);
        }
        if let Some(gate) = gate {
            merge_sorted(&streams, gate);
        }
        metrics
    }
}

/// Overwrites `out` with the merge of the sorted `streams`. Equal samples
/// are indistinguishable, so the merge is the full sort of their union.
fn merge_sorted(streams: &[Vec<GateSample>], out: &mut Vec<GateSample>) {
    out.clear();
    out.reserve(streams.iter().map(Vec::len).sum());
    let mut rest: Vec<&[GateSample]> = streams
        .iter()
        .map(Vec::as_slice)
        .filter(|s| !s.is_empty())
        .collect();
    while rest.len() > 1 {
        let mut k = 0;
        for j in 1..rest.len() {
            if rest[j][0] < rest[k][0] {
                k = j;
            }
        }
        out.push(rest[k][0]);
        rest[k] = &rest[k][1..];
        if rest[k].is_empty() {
            rest.swap_remove(k);
        }
    }
    if let Some(last) = rest.first() {
        out.extend_from_slice(last);
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for worker in &self.workers {
            // A worker that already exited (send fails) is fine to join.
            let _ = worker.cmds.send(ShardCmd::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// Shard `shard`'s slice of wave `[lo, hi)` among `shards`:
/// `[lo + n·k/s, lo + n·(k+1)/s)` with `n = hi - lo`, computed in `u64`.
fn slice_of(lo: u32, hi: u32, shard: usize, shards: usize) -> (u32, u32) {
    let n = u64::from(hi - lo);
    let at = |k: usize| lo + (n * k as u64 / shards as u64) as u32;
    (at(shard), at(shard + 1))
}

/// Worker loop: simulate this shard's contiguous slice of each wave.
fn shard_main(
    spec: &CampaignSpec,
    shard: ShardId,
    shards: usize,
    cmds: &Receiver<ShardCmd>,
    replies: &Sender<WaveBatch>,
) {
    while let Ok(cmd) = cmds.recv() {
        match cmd {
            ShardCmd::Shutdown => return,
            ShardCmd::Wave {
                wave,
                lo,
                hi,
                start,
                mut outcomes,
                mut gate,
            } => {
                let (first, last) = slice_of(lo, hi, usize::from(shard.raw()), shards);
                for v in first..last {
                    let outcome = simulate_vehicle(spec, VehicleId(v), start);
                    if outcome.admitted() {
                        gate.push(GateSample::new(
                            outcome.completed,
                            outcome.verdict == VehicleVerdict::VerifyFailed,
                        ));
                    }
                    outcomes.push(outcome);
                }
                let metrics = ShardMetrics::from_outcomes(&outcomes);
                gate.sort_unstable();
                if replies
                    .send(WaveBatch {
                        shard,
                        wave,
                        outcomes,
                        gate,
                        metrics,
                    })
                    .is_err()
                {
                    // Master dropped the pool mid-wave; nothing to report to.
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_faults::FaultPlan;

    fn spec(seed: u64) -> Arc<CampaignSpec> {
        Arc::new(CampaignSpec::standard(
            seed,
            4_000,
            FaultPlan::quiet(seed).with_message_faults(0.05, 0.1, 0.0),
        ))
    }

    #[test]
    fn merged_wave_is_invariant_to_shard_count() {
        let spec = spec(0x5AA5);
        let mut one = ShardPool::spawn(Arc::clone(&spec), 1);
        let mut four = ShardPool::spawn(Arc::clone(&spec), 4);
        let (o1, m1) = one.run_wave(0, 0, 4_000, SimTime::ZERO);
        let (o4, m4) = four.run_wave(0, 0, 4_000, SimTime::ZERO);
        assert_eq!(o1, o4);
        assert_eq!(m1, m4);
    }

    #[test]
    fn merged_metrics_equal_per_vehicle_fold() {
        let spec = spec(0xBEEF);
        let mut pool = ShardPool::spawn(Arc::clone(&spec), 3);
        let (outcomes, metrics) = pool.run_wave(0, 0, 2_500, SimTime::ZERO);
        assert_eq!(metrics, ShardMetrics::from_outcomes(&outcomes));
        assert!(metrics.conserves());
        assert_eq!(metrics.simulated, 2_500);
    }

    /// Outcomes equal the serial per-vehicle map and the merged gate
    /// stream equals the full sort of the wave's admitted samples, for
    /// shard counts that do and do not divide the wave, waves smaller
    /// than the pool and empty waves.
    #[test]
    fn outcomes_are_sorted_and_complete() {
        let spec = spec(0xC0DE);
        let lo = 100;
        let start = SimTime::from_secs(30);
        for shards in [1, 2, 3, 5, 7] {
            let mut pool = ShardPool::spawn(Arc::clone(&spec), shards);
            for (wave, n) in [0u32, 1, 3, 1_000, 2_501].into_iter().enumerate() {
                let mut outcomes = Vec::new();
                let mut gate = vec![GateSample::new(SimTime::ZERO, true)];
                let metrics = pool.run_wave_into(
                    wave as u32,
                    lo,
                    lo + n,
                    start,
                    &mut outcomes,
                    Some(&mut gate),
                );
                let serial: Vec<VehicleOutcome> = (lo..lo + n)
                    .map(|v| simulate_vehicle(&spec, VehicleId(v), start))
                    .collect();
                assert_eq!(outcomes, serial, "{shards} shards, {n} vehicles");
                let mut sorted: Vec<GateSample> = serial
                    .iter()
                    .filter(|o| o.admitted())
                    .map(|o| {
                        GateSample::new(o.completed, o.verdict == VehicleVerdict::VerifyFailed)
                    })
                    .collect();
                sorted.sort_unstable();
                assert_eq!(gate, sorted, "{shards} shards, {n} vehicles");
                assert_eq!(metrics.simulated, u64::from(n));
            }
        }
    }

    /// The per-outcome fold `from_outcomes` replaced: every stage
    /// observation recorded straight into the sparse sketches.
    fn record_fold(outcomes: &[VehicleOutcome]) -> ShardMetrics {
        let mut m = ShardMetrics::default();
        for o in outcomes {
            m.simulated += 1;
            match o.verdict {
                VehicleVerdict::Rejected(Reject::Flash) => m.rejected_flash += 1,
                VehicleVerdict::Rejected(_) => m.rejected_config += 1,
                VehicleVerdict::Offline => m.offline += 1,
                VehicleVerdict::Updated | VehicleVerdict::WaveRolledBack => {
                    m.admitted += 1;
                    m.updated += 1;
                }
                VehicleVerdict::VerifyFailed => {
                    m.admitted += 1;
                    m.verify_failed += 1;
                }
            }
            m.retries += u64::from(o.retries);
            m.stall_ns += o.stall.as_nanos();
            if o.admitted() {
                m.download_ms.record(o.download_time().as_millis());
                m.finalize_ms.record(o.finalize_time().as_millis());
                m.stall_ms.record(o.stall.as_millis());
                m.e2e_ms.record(o.duration().as_millis());
            }
        }
        m
    }

    #[test]
    fn from_outcomes_equals_the_record_fold_and_merges_over_splits() {
        use dynplat_common::rng::{seeded_rng, Rng};
        use dynplat_common::time::SimDuration;
        use dynplat_common::BusId;
        let plan = FaultPlan::quiet(7)
            .with_message_faults(0.1, 0.3, 0.0)
            .with_delay_spikes(0.2, SimDuration::from_secs(3))
            .partition(BusId(2), SimTime::from_secs(10), SimTime::from_secs(400));
        let spec = CampaignSpec::standard(7, 3_000, plan);
        let mut outcomes: Vec<VehicleOutcome> = (0..3_000)
            .map(|v| simulate_vehicle(&spec, VehicleId(v), SimTime::from_secs(u64::from(v % 5))))
            .collect();
        // The master's verdict, which the shards never assign.
        for o in outcomes.iter_mut().step_by(7) {
            if o.verdict == VehicleVerdict::Updated {
                o.verdict = VehicleVerdict::WaveRolledBack;
            }
        }
        assert_eq!(ShardMetrics::from_outcomes(&[]), ShardMetrics::default());
        let whole = ShardMetrics::from_outcomes(&outcomes);
        assert_eq!(whole, record_fold(&outcomes));
        assert!(whole.conserves() && whole.stall_ns > 0 && whole.retries > 0);
        let mut rng = seeded_rng(0x5117);
        for _ in 0..16 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..6))
                .map(|_| rng.gen_range(0..=outcomes.len()))
                .collect();
            cuts.push(0);
            cuts.push(outcomes.len());
            cuts.sort_unstable();
            let mut merged = ShardMetrics::default();
            for w in cuts.windows(2) {
                merged.merge(&ShardMetrics::from_outcomes(&outcomes[w[0]..w[1]]));
            }
            assert_eq!(merged, whole, "cuts {cuts:?}");
        }
    }

    #[test]
    fn packed_gate_samples_keep_the_tuple_order() {
        use dynplat_common::rng::{seeded_rng, Rng};
        let mut rng = seeded_rng(0x6A7E);
        let edge = [
            0,
            1,
            2,
            (1 << 62) - 1,
            1 << 62,
            (1 << 63) - 2,
            (1 << 63) - 1,
        ];
        let mut pairs: Vec<(SimTime, bool)> = edge
            .iter()
            .flat_map(|&ns| {
                [
                    (SimTime::from_nanos(ns), false),
                    (SimTime::from_nanos(ns), true),
                ]
            })
            .collect();
        pairs.extend((0..200).map(|_| {
            let ns = match rng.gen_range(0u32..3) {
                0 => rng.gen_range(0u64..64),
                1 => rng.gen_range(0u64..1 << 40),
                _ => rng.gen::<u64>() >> 1,
            };
            (SimTime::from_nanos(ns), rng.next_u64() & 1 == 1)
        }));
        for &a in &pairs {
            let pa = GateSample::new(a.0, a.1);
            assert_eq!((pa.at(), pa.failed()), a, "round trip");
            for &b in &pairs {
                assert_eq!(
                    pa.cmp(&GateSample::new(b.0, b.1)),
                    a.cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit 63 bits")]
    fn a_gate_sample_past_63_bits_panics() {
        let _ = GateSample::new(SimTime::from_nanos(1 << 63), false);
    }

    #[test]
    #[should_panic(expected = "lo must not exceed hi")]
    fn inverted_wave_range_panics() {
        let mut pool = ShardPool::spawn(spec(0xBAD), 2);
        let _ = pool.run_wave(0, 10, 9, SimTime::ZERO);
    }

    #[test]
    fn pool_survives_many_waves() {
        let spec = spec(0xF00D);
        let mut pool = ShardPool::spawn(Arc::clone(&spec), 2);
        let mut total = ShardMetrics::default();
        for wave in 0..4u32 {
            let lo = wave * 1_000;
            let (_, m) = pool.run_wave(wave, lo, lo + 1_000, SimTime::ZERO);
            total.merge(&m);
        }
        assert_eq!(total.simulated, 4_000);
        assert!(total.conserves());
    }
}
