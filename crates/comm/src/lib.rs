//! Service-oriented middleware for the dynamic platform (§2.1, Fig. 3).
//!
//! "To achieve a more flexible communication, service-oriented or
//! data-centric communication might be used. Potential candidates for this
//! are SOME/IP and DDS." This crate implements a SOME/IP-inspired
//! middleware from scratch:
//!
//! * [`wire`] — the on-wire message header (message id, length, request id,
//!   message type, return code) with a validated binary codec;
//! * [`sd`] — service discovery: offers with TTL, finds, subscriptions;
//! * [`fabric`] — a multi-bus network fabric over `dynplat-net` arbiters
//!   and the `dynplat-hw` topology: segmentation per medium, gateway
//!   store-and-forward, delivery callbacks;
//! * [`paradigm`] — the paper's three communication paradigms built on the
//!   fabric: **Event** (publish/subscribe, producer owns the interface),
//!   **Message** (request/response RPC, consumer owns the interface) and
//!   **Stream** (continuous one-way data with inter-frame dependencies);
//! * [`qos`] — the latency/jitter/bandwidth requirement attributes the
//!   interface DSL attaches to each port;
//! * [`retry`] — client-side robustness: per-request timeout, capped
//!   exponential backoff with deterministic jitter, and a circuit breaker
//!   per (client, service) edge;
//! * [`ring`] — a fixed-capacity `(time, seq, slot)` event ring; the
//!   fabric no longer uses it, the `dynbench` `adas_cycle` replay does;
//! * [`arena`] — the per-fabric payload arena behind the zero-copy wire
//!   path: one staged frame shared by every fanout leg.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod fabric;
pub mod paradigm;
pub mod qos;
pub mod retry;
pub mod ring;
pub mod sd;
pub mod wire;

pub use arena::{ArenaStats, PayloadArena, PayloadRef};
pub use fabric::{BusPort, Fabric, MessageDelivery, MessageSend, SlabStats};
pub use paradigm::{EventBus, EventScratch, RpcScratch, RpcStats, StreamScratch, StreamStats};
pub use qos::QosSpec;
pub use retry::{Attempt, CircuitBreaker, RetryPolicy};
pub use ring::{RingEntry, SpscRing};
pub use sd::{SdEntry, ServiceDirectory};
pub use wire::{MessageType, ReturnCode, SomeIpHeader};
