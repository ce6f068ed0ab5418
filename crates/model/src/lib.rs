//! The integrated modeling approach of §2.2.
//!
//! "A set of Domain-Specific Languages (DSLs) can be a good approach to
//! describe the system in a formal way, which can be checked for
//! correctness. Such a set of DSLs requires separate approaches to describe
//! the hardware architecture, the interfaces between applications and a
//! deployment to different hardware architectures and communication
//! technologies." This crate provides all three, plus the attached
//! verification engine and the generators that feed the rest of the stack:
//!
//! * [`ir`] — the in-memory system model: hardware (reusing
//!   `dynplat-hw`), typed service interfaces with owners and QoS
//!   attributes, applications with tasks/resources/ASIL, and a deployment
//!   with *variability* (an app may be mapped to any of several ECUs,
//!   §2.3);
//! * [`dsl`] — a textual syntax with lexer, recursive-descent parser and
//!   pretty-printer (parse ∘ print = id, property-tested);
//! * [`mod@verify`] — the verification engine: reference integrity, interface
//!   ownership, ASIL dependency monotonicity, memory/MMU isolation, CPU
//!   schedulability per ECU, bus bandwidth, and latency feasibility — over
//!   one concrete deployment or *all* variant combinations;
//! * [`generate`] — integration is key (§2.2): generation of the access
//!   control matrix, middleware subscription config, and per-ECU task sets
//!   for the scheduling substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dsl;
pub mod generate;
pub mod ir;
pub mod verify;

pub use dsl::{parse_model, print_model, ParseError};
pub use ir::{
    AppModel, ConsumedPort, Deployment, EventDef, MappingChoice, MethodDef, PortKind,
    ServiceInterface, StreamDef, SystemModel,
};
pub use verify::{verify, verify_all_variants, Violation};
