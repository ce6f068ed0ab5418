//! Virtual-atomics models of the fabric's two lock-free protocols.
//!
//! [`SpscModel`] mirrors `dynplat_comm::ring::SpscRing`'s three-lane
//! publish protocol *operation for operation*: the producer writes the
//! `time`/`seq`/`slot` lanes with `Relaxed` stores and publishes with a
//! store of `tail`; the consumer loads `tail`, reads the lanes `Relaxed`,
//! and retires the slot with a store of `head`. The model is parameterized
//! over the orderings and the publish order, so the checker can prove the
//! shipped protocol safe under every explored interleaving **and** catch
//! the two seeded bugs the regression suite re-injects: `tail` published
//! `Relaxed`, and lanes written after `tail`.
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

/// Ring capacity of the modeled [`SpscModel`]: two slots, so three pushes
/// exercise index wrap-around and slot reuse.
pub const MODEL_CAP: u64 = 2;

const HEAD: usize = 0;
const TAIL: usize = 1;
/// Lane base offsets: location of lane `l` for slot `s` is `2 + l*CAP + s`.
const LANES: usize = 3;

fn lane_loc(lane: usize, slot: u64) -> usize {
    2 + lane * MODEL_CAP as usize + slot as usize
}

/// Expected lane values for entry `k` (distinct per lane so torn reads —
/// a mix of entries across lanes — are also caught).
fn lane_val(lane: usize, k: u64) -> u64 {
    match lane {
        0 => 100 + k, // time
        1 => k,       // seq
        _ => 10 + k,  // slot
    }
}

/// Producer program counter phases (per push): capacity check, the three
/// lane stores, the tail publish.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ProdPc {
    CheckHead,
    WriteLane(u8),
    PublishTail,
    Done,
}

/// Consumer phases (per pop): tail poll, the three lane loads, the head
/// retire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum ConsPc {
    PollTail,
    ReadLane(u8),
    RetireHead,
    Done,
}

/// The modeled SPSC ring; see module docs. `threads()` is 2: thread 0 is
/// the producer, thread 1 the consumer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SpscModel {
    /// Entries to push (3 wraps a 2-slot ring).
    pushes: u64,
    /// Ordering of the producer's `tail` publish (`Release` when correct).
    tail_order: MemOrd,
    /// Ordering of the consumer's `head` retire store.
    head_order: MemOrd,
    /// When false, the producer publishes `tail` *before* writing the
    /// lanes — the program-order seeded bug.
    lanes_before_tail: bool,
    prod_pc: ProdPc,
    /// Entries fully pushed.
    pushed: u64,
    cons_pc: ConsPc,
    /// Entries fully popped.
    popped: u64,
    /// Lanes read so far for the in-flight pop.
    read: [u64; LANES],
}

impl SpscModel {
    /// The protocol as shipped in `crates/comm/src/ring.rs`.
    pub fn correct(pushes: u64) -> Self {
        SpscModel::with_orders(pushes, MemOrd::Release, MemOrd::Release, true)
    }

    /// Seeded bug #1: `tail` published with `Relaxed` — the consumer can
    /// observe the new `tail` while the lane stores are still invisible.
    pub fn broken_relaxed_tail(pushes: u64) -> Self {
        SpscModel::with_orders(pushes, MemOrd::Relaxed, MemOrd::Release, true)
    }

    /// Seeded bug #2: lanes written *after* the `tail` publish — correct
    /// orderings cannot save a wrong program order.
    pub fn broken_lanes_after_tail(pushes: u64) -> Self {
        SpscModel::with_orders(pushes, MemOrd::Release, MemOrd::Release, false)
    }

    fn with_orders(
        pushes: u64,
        tail_order: MemOrd,
        head_order: MemOrd,
        lanes_before_tail: bool,
    ) -> Self {
        SpscModel {
            pushes,
            tail_order,
            head_order,
            lanes_before_tail,
            prod_pc: ProdPc::CheckHead,
            pushed: 0,
            cons_pc: ConsPc::PollTail,
            popped: 0,
            read: [0; LANES],
        }
    }

    fn slot_of(&self, k: u64) -> u64 {
        k % MODEL_CAP
    }
}

impl Model for SpscModel {
    fn threads(&self) -> usize {
        2
    }

    fn locations(&self) -> usize {
        2 + LANES * MODEL_CAP as usize
    }

    fn next_op(&self, tid: usize) -> Option<Op> {
        if tid == 0 {
            // Producer. Its own `tail` cursor lives in a local (`pushed`);
            // only `head` is read, matching the real `try_push`.
            let k = self.pushed;
            match self.prod_pc {
                ProdPc::CheckHead => Some(Op::Load(HEAD, MemOrd::Acquire)),
                ProdPc::WriteLane(l) => Some(Op::Store(
                    lane_loc(l as usize, self.slot_of(k)),
                    lane_val(l as usize, k),
                    MemOrd::Relaxed,
                )),
                ProdPc::PublishTail => Some(Op::Store(TAIL, k + 1, self.tail_order)),
                ProdPc::Done => None,
            }
        } else {
            // Consumer.
            let j = self.popped;
            match self.cons_pc {
                ConsPc::PollTail => Some(Op::Load(TAIL, MemOrd::Acquire)),
                ConsPc::ReadLane(l) => Some(Op::Load(
                    lane_loc(l as usize, self.slot_of(j)),
                    MemOrd::Relaxed,
                )),
                ConsPc::RetireHead => Some(Op::Store(HEAD, j + 1, self.head_order)),
                ConsPc::Done => None,
            }
        }
    }

    fn apply(&mut self, tid: usize, value: u64) -> Result<(), String> {
        if tid == 0 {
            match self.prod_pc {
                ProdPc::CheckHead => {
                    // `value` is the observed head; full means retry the
                    // load (a stale head can only under-report free slots,
                    // which is the conservative spill direction).
                    if self.pushed - value < MODEL_CAP {
                        self.prod_pc = if self.lanes_before_tail {
                            ProdPc::WriteLane(0)
                        } else {
                            ProdPc::PublishTail
                        };
                    }
                }
                ProdPc::WriteLane(l) if (l as usize) < LANES - 1 => {
                    self.prod_pc = ProdPc::WriteLane(l + 1);
                }
                ProdPc::WriteLane(_) => {
                    self.prod_pc = if self.lanes_before_tail {
                        ProdPc::PublishTail
                    } else {
                        self.finish_push()
                    };
                }
                ProdPc::PublishTail => {
                    self.prod_pc = if self.lanes_before_tail {
                        self.finish_push()
                    } else {
                        ProdPc::WriteLane(0)
                    };
                }
                ProdPc::Done => unreachable!("producer is finished"),
            }
            Ok(())
        } else {
            match self.cons_pc {
                ConsPc::PollTail => {
                    // Empty (or stale-tail) observation: poll again.
                    if value > self.popped {
                        self.cons_pc = ConsPc::ReadLane(0);
                    }
                    Ok(())
                }
                ConsPc::ReadLane(l) => {
                    self.read[l as usize] = value;
                    let expect = lane_val(l as usize, self.popped);
                    if value != expect {
                        return Err(format!(
                            "stale lane read: pop #{} lane {} returned {} (expected {})",
                            self.popped, l, value, expect
                        ));
                    }
                    self.cons_pc = if (l as usize) < LANES - 1 {
                        ConsPc::ReadLane(l + 1)
                    } else {
                        ConsPc::RetireHead
                    };
                    Ok(())
                }
                ConsPc::RetireHead => {
                    self.popped += 1;
                    self.cons_pc = if self.popped == self.pushes {
                        ConsPc::Done
                    } else {
                        ConsPc::PollTail
                    };
                    Ok(())
                }
                ConsPc::Done => unreachable!("consumer is finished"),
            }
        }
    }

    fn check_final(&self) -> Result<(), String> {
        // FIFO order and per-entry integrity are asserted inline at every
        // lane read; the terminal claim is conservation.
        if self.pushed != self.pushes || self.popped != self.pushes {
            return Err(format!(
                "conservation: pushed {} / popped {} of {}",
                self.pushed, self.popped, self.pushes
            ));
        }
        Ok(())
    }
}

impl SpscModel {
    fn finish_push(&mut self) -> ProdPc {
        self.pushed += 1;
        if self.pushed == self.pushes {
            ProdPc::Done
        } else {
            ProdPc::CheckHead
        }
    }
}

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
