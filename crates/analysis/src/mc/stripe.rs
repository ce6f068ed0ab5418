//! Virtual-atomics model of the `dynplat_obs` metrics flushes.
//!
//! [`StripeModel`] mirrors the two metrics flushes of `dynplat_obs`:
//! writers update cells with `Relaxed` RMWs and announce completion
//! through a flag (the thread join); the reader acquires the flags, then
//! loads the cells `Relaxed`. [`StripeModel::correct`] is the striped
//! `Counter` (each writer bumps its own cell; the snapshot sums them).
//! [`StripeModel::shared_fields`] is the `Histogram` flush — `record_n`,
//! `merge_local` and `merge` are `Relaxed` per-field adds into a bucket
//! and the totals that every writer shares. The model shows the `Relaxed`
//! cell operations are sound *because* the completion handshake is
//! `Release`/`Acquire` — and catches the lost counts when the handshake
//! is weakened.

use super::{MemOrd, Model, Op};

/// Number of increments each modeled writer performs.
pub const STRIPE_INCS: u64 = 2;

const CELL0: usize = 0;
const CELL1: usize = 1;
const FLAG0: usize = 2;
const FLAG1: usize = 3;

/// The metrics flush: writers 0 and 1 update the cells with `Relaxed`
/// RMWs, then announce completion; the reader (thread 2) waits on both
/// flags and loads both cells with `Relaxed` loads, each of which must
/// hold [`STRIPE_INCS`].
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StripeModel {
    /// Ordering of the writers' completion-flag stores (`Release` models
    /// the real thread-join handshake).
    flag_order: MemOrd,
    /// `false`: writer `t` bumps cell `t` [`STRIPE_INCS`] times (striped
    /// counter). `true`: every writer adds once to each cell (a histogram
    /// bucket and its count, shared by all writers).
    shared: bool,
    /// Per-writer increments performed (pc while < [`STRIPE_INCS`]).
    incs: [u64; 2],
    flagged: [bool; 2],
    /// Reader pc: 0/1 wait on flags, 2/3 read cells, 4 done.
    reader_pc: u8,
}

impl StripeModel {
    /// The handshake as the real snapshot path has it.
    pub fn correct() -> Self {
        StripeModel::new(MemOrd::Release, false)
    }

    /// The histogram flush: both writers add into the same fields.
    pub fn shared_fields() -> Self {
        StripeModel::new(MemOrd::Release, true)
    }

    /// Seeded bug: completion announced `Relaxed`, so the reader may miss
    /// increments.
    pub fn broken_relaxed_flag() -> Self {
        StripeModel::new(MemOrd::Relaxed, false)
    }

    fn new(flag_order: MemOrd, shared: bool) -> Self {
        StripeModel {
            flag_order,
            shared,
            incs: [0, 0],
            flagged: [false, false],
            reader_pc: 0,
        }
    }
}

impl Model for StripeModel {
    fn threads(&self) -> usize {
        3
    }

    fn locations(&self) -> usize {
        4
    }

    fn next_op(&self, tid: usize) -> Option<Op> {
        match tid {
            0 | 1 => {
                let cell = match (self.shared, tid) {
                    (true, _) => [CELL0, CELL1][self.incs[tid] as usize % 2],
                    (false, 0) => CELL0,
                    (false, _) => CELL1,
                };
                let flag = if tid == 0 { FLAG0 } else { FLAG1 };
                if self.incs[tid] < STRIPE_INCS {
                    Some(Op::FetchAdd(cell, 1, MemOrd::Relaxed))
                } else if !self.flagged[tid] {
                    Some(Op::Store(flag, 1, self.flag_order))
                } else {
                    None
                }
            }
            _ => match self.reader_pc {
                0 => Some(Op::Load(FLAG0, MemOrd::Acquire)),
                1 => Some(Op::Load(FLAG1, MemOrd::Acquire)),
                2 => Some(Op::Load(CELL0, MemOrd::Relaxed)),
                3 => Some(Op::Load(CELL1, MemOrd::Relaxed)),
                _ => None,
            },
        }
    }

    fn apply(&mut self, tid: usize, value: u64) -> Result<(), String> {
        match tid {
            0 | 1 => {
                if self.incs[tid] < STRIPE_INCS {
                    self.incs[tid] += 1;
                } else {
                    self.flagged[tid] = true;
                }
                Ok(())
            }
            _ => {
                match self.reader_pc {
                    0 | 1 => {
                        // Spin until the writer's flag is visible.
                        if value == 1 {
                            self.reader_pc += 1;
                        }
                        Ok(())
                    }
                    _ => {
                        self.reader_pc += 1;
                        if value != STRIPE_INCS {
                            return Err(format!("lost counts: cell read {value} != {STRIPE_INCS}"));
                        }
                        Ok(())
                    }
                }
            }
        }
    }

    fn check_final(&self) -> Result<(), String> {
        Ok(())
    }
}
