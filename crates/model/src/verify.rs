//! The verification engine attached to the modeling approach (§2.2):
//! "An attached verification engine should ensure that the interconnections
//! and deployment mappings fulfill the defined requirements."
//!
//! Checks run over one concrete mapping ([`verify`]) or over every variant
//! combination the deployment admits ([`verify_all_variants`], §2.3: "it
//! needs to be ensured that every possible mapping is functional, safe, and
//! secure").

use crate::ir::{AppModel, PortKind, SystemModel};
use dynplat_common::time::SimDuration;
use dynplat_common::TaskId;
use dynplat_common::{AppId, BusId, EcuId, ServiceId};
use dynplat_hw::BusKind;
use dynplat_net::can_frame_time;
use dynplat_net::ethernet::ethernet_frame_time;
use dynplat_sched::rta;
use dynplat_sched::task::{TaskSet, TaskSpec};
use std::collections::BTreeMap;
use std::fmt;

/// A single verification finding.
#[derive(Clone, Debug, PartialEq)]
pub enum Violation {
    /// A reference points at a non-existent entity.
    DanglingReference {
        /// Where the reference occurs.
        context: String,
        /// What is missing.
        missing: String,
    },
    /// A service is provided by an app that does not own it, or not at all.
    OwnershipMismatch {
        /// The service in question.
        service: ServiceId,
        /// Detail.
        detail: String,
    },
    /// A consumer's ASIL exceeds its provider's ASIL (§3: "Only with
    /// correct safe dependencies can a software module be considered safe").
    AsilDependency {
        /// The consuming application.
        consumer: AppId,
        /// The providing application.
        provider: AppId,
    },
    /// Memory demand exceeds an ECU's RAM.
    MemoryOverflow {
        /// The overloaded ECU.
        ecu: EcuId,
        /// Demand in KiB.
        demand_kib: u64,
        /// Capacity in KiB.
        capacity_kib: u32,
    },
    /// Mixed applications on an MMU-less ECU (no freedom of interference
    /// in the memory dimension, §3.1).
    MissingMmuIsolation {
        /// The ECU without an MMU.
        ecu: EcuId,
    },
    /// The deterministic task set of an ECU fails schedulability analysis.
    Unschedulable {
        /// The overloaded ECU.
        ecu: EcuId,
        /// CPU utilization found.
        utilization: f64,
    },
    /// An app needs a GPU but its ECU has none.
    MissingGpu {
        /// The application.
        app: AppId,
        /// The GPU-less ECU.
        ecu: EcuId,
    },
    /// Stream bandwidth over a bus exceeds its bitrate.
    BandwidthOverflow {
        /// The saturated bus.
        bus: BusId,
        /// Demand in bit/s.
        demand: u64,
        /// Capacity in bit/s.
        capacity: u64,
    },
    /// A latency-bounded relation cannot meet its bound on the chosen route.
    LatencyInfeasible {
        /// Consumer application.
        consumer: AppId,
        /// Provider application.
        provider: AppId,
        /// Required bound.
        required: SimDuration,
        /// Estimated floor (transmission only, no queueing).
        estimated: SimDuration,
    },
    /// Consumer and provider are deployed with no network path.
    NoRoute {
        /// Consumer application.
        consumer: AppId,
        /// Provider application.
        provider: AppId,
    },
    /// An app's deployment choice references no candidate ECUs.
    EmptyMapping {
        /// The unmappable application.
        app: AppId,
    },
    /// A fail-operational app (§3.3) demands more replicas than the
    /// deployment offers feasible, distinct candidate ECUs for.
    InsufficientReplicaCandidates {
        /// The redundant application.
        app: AppId,
        /// Replicas required.
        required: u8,
        /// Feasible distinct candidates found.
        feasible: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DanglingReference { context, missing } => {
                write!(f, "{context}: dangling reference to {missing}")
            }
            Violation::OwnershipMismatch { service, detail } => {
                write!(f, "ownership of {service}: {detail}")
            }
            Violation::AsilDependency { consumer, provider } => {
                write!(f, "{consumer} depends on lower-ASIL provider {provider}")
            }
            Violation::MemoryOverflow { ecu, demand_kib, capacity_kib } => {
                write!(f, "{ecu}: memory demand {demand_kib} KiB > {capacity_kib} KiB")
            }
            Violation::MissingMmuIsolation { ecu } => {
                write!(f, "{ecu}: multiple apps but no MMU for memory isolation")
            }
            Violation::Unschedulable { ecu, utilization } => {
                write!(f, "{ecu}: deterministic task set unschedulable (U = {utilization:.2})")
            }
            Violation::MissingGpu { app, ecu } => {
                write!(f, "{app} needs a GPU but {ecu} has none")
            }
            Violation::BandwidthOverflow { bus, demand, capacity } => {
                write!(f, "{bus}: stream demand {demand} bit/s > {capacity} bit/s")
            }
            Violation::LatencyInfeasible { consumer, provider, required, estimated } => {
                write!(
                    f,
                    "{consumer}->{provider}: latency bound {required} below transmission floor {estimated}"
                )
            }
            Violation::NoRoute { consumer, provider } => {
                write!(f, "no network route between {consumer} and {provider}")
            }
            Violation::EmptyMapping { app } => write!(f, "{app} has no candidate ECUs"),
            Violation::InsufficientReplicaCandidates { app, required, feasible } => write!(
                f,
                "{app} requires {required} replicas but only {feasible} feasible candidate ECUs exist"
            ),
        }
    }
}

fn check_references(model: &SystemModel, out: &mut Vec<Violation>) {
    for iface in &model.interfaces {
        if model.application(iface.owner).is_none() {
            out.push(Violation::DanglingReference {
                context: format!("interface {}", iface.name),
                missing: format!("owner {}", iface.owner),
            });
        }
    }
    for app in &model.applications {
        for service in &app.provides {
            match model.interface(*service) {
                None => out.push(Violation::DanglingReference {
                    context: format!("application {}", app.name),
                    missing: format!("provided {service}"),
                }),
                Some(iface) if iface.owner != app.id => out.push(Violation::OwnershipMismatch {
                    service: *service,
                    detail: format!("provided by {} but owned by {}", app.id, iface.owner),
                }),
                Some(_) => {}
            }
        }
        for port in &app.consumes {
            let Some(iface) = model.interface(port.service) else {
                out.push(Violation::DanglingReference {
                    context: format!("application {}", app.name),
                    missing: format!("consumed {}", port.service),
                });
                continue;
            };
            let exists = match port.kind {
                PortKind::Event(e) => iface.event(e).is_some(),
                PortKind::Method(m) => iface.method(m).is_some(),
                PortKind::Stream(s) => iface.stream(s).is_some(),
            };
            if !exists {
                out.push(Violation::DanglingReference {
                    context: format!("application {}", app.name),
                    missing: format!("{:?} on {}", port.kind, port.service),
                });
            }
        }
    }
    // Every owned service should actually be provided by its owner.
    for iface in &model.interfaces {
        if let Some(owner) = model.application(iface.owner) {
            if !owner.provides.contains(&iface.id) {
                out.push(Violation::OwnershipMismatch {
                    service: iface.id,
                    detail: format!("owner {} does not list it in provides", owner.id),
                });
            }
        }
    }
    for (app, choice) in &model.deployment.mapping {
        if model.application(*app).is_none() {
            out.push(Violation::DanglingReference {
                context: "deployment".into(),
                missing: format!("application {app}"),
            });
        }
        if choice.candidates().is_empty() {
            out.push(Violation::EmptyMapping { app: *app });
        }
        for ecu in choice.candidates() {
            if model.hardware.ecu(*ecu).is_none() {
                out.push(Violation::DanglingReference {
                    context: format!("deployment of {app}"),
                    missing: format!("{ecu}"),
                });
            }
        }
    }
}

fn check_asil(model: &SystemModel, out: &mut Vec<Violation>) {
    for app in &model.applications {
        for port in &app.consumes {
            if let Some(provider) = model.provider_of(port.service) {
                if !app.asil.may_depend_on(provider.asil) {
                    out.push(Violation::AsilDependency {
                        consumer: app.id,
                        provider: provider.id,
                    });
                }
            }
        }
    }
}

fn apps_on<'a>(
    model: &'a SystemModel,
    assignment: &BTreeMap<AppId, EcuId>,
    ecu: EcuId,
) -> Vec<&'a AppModel> {
    assignment
        .iter()
        .filter(|(_, &e)| e == ecu)
        .filter_map(|(a, _)| model.application(*a))
        .collect()
}

fn check_resources(
    model: &SystemModel,
    assignment: &BTreeMap<AppId, EcuId>,
    out: &mut Vec<Violation>,
) {
    for ecu in model.hardware.ecus() {
        let apps = apps_on(model, assignment, ecu.id());
        if apps.is_empty() {
            continue;
        }
        let demand_kib: u64 = apps.iter().map(|a| u64::from(a.memory_kib)).sum();
        if demand_kib > u64::from(ecu.ram_kib()) {
            out.push(Violation::MemoryOverflow {
                ecu: ecu.id(),
                demand_kib,
                capacity_kib: ecu.ram_kib(),
            });
        }
        if apps.len() > 1 && !ecu.has_mmu() {
            out.push(Violation::MissingMmuIsolation { ecu: ecu.id() });
        }
        for app in &apps {
            if app.needs_gpu && !ecu.has_gpu() {
                out.push(Violation::MissingGpu {
                    app: app.id,
                    ecu: ecu.id(),
                });
            }
        }
        // Deterministic schedulability on this CPU.
        let det: TaskSet = apps
            .iter()
            .filter(|a| a.kind.is_deterministic())
            .map(|a| {
                let wcet = a.wcet_on(ecu.cpu()).max(SimDuration::from_nanos(1));
                let wcet = wcet.min(a.period); // guard: overload shows as U ≥ 1
                TaskSpec::periodic(TaskId(a.id.raw()), a.name.clone(), a.period, wcet)
            })
            .collect();
        if !det.is_empty() {
            let dm = rta::assign_deadline_monotonic(&det);
            let over = det.tasks().iter().any(|t| {
                model
                    .application(AppId(t.id.raw()))
                    .is_some_and(|a| a.wcet_on(ecu.cpu()) > a.period)
            });
            if over || !rta::is_schedulable(&dm) {
                out.push(Violation::Unschedulable {
                    ecu: ecu.id(),
                    utilization: if over {
                        f64::INFINITY
                    } else {
                        det.utilization()
                    },
                });
            }
        }
    }
}

fn check_communication(
    model: &SystemModel,
    assignment: &BTreeMap<AppId, EcuId>,
    out: &mut Vec<Violation>,
) {
    let mut bus_demand: BTreeMap<BusId, u64> = BTreeMap::new();
    for app in &model.applications {
        let Some(&consumer_ecu) = assignment.get(&app.id) else {
            continue;
        };
        for port in &app.consumes {
            let Some(provider) = model.provider_of(port.service) else {
                continue;
            };
            let Some(&provider_ecu) = assignment.get(&provider.id) else {
                continue;
            };
            let route = match model.hardware.route(provider_ecu, consumer_ecu) {
                Ok(r) => r,
                Err(_) => {
                    out.push(Violation::NoRoute {
                        consumer: app.id,
                        provider: provider.id,
                    });
                    continue;
                }
            };
            let iface = model
                .interface(port.service)
                .expect("checked by references");
            let (qos, size_hint) = match port.kind {
                PortKind::Event(e) => {
                    let Some(def) = iface.event(e) else { continue };
                    (def.qos, def.payload.encoded_size_bounds().1)
                }
                PortKind::Method(m) => {
                    let Some(def) = iface.method(m) else { continue };
                    (
                        def.qos,
                        def.request
                            .encoded_size_bounds()
                            .1
                            .max(def.response.encoded_size_bounds().1),
                    )
                }
                PortKind::Stream(s) => {
                    let Some(def) = iface.stream(s) else { continue };
                    (def.qos, def.frame.encoded_size_bounds().1)
                }
            };
            // Bandwidth accumulation for streams.
            if let Some(bw) = qos.min_bandwidth {
                for bus in &route.buses {
                    *bus_demand.entry(*bus).or_insert(0) += bw;
                }
            }
            // Latency floor: sum of pure transmission times along the route.
            if let Some(bound) = qos.max_latency {
                if !route.is_local() {
                    let mut floor = SimDuration::ZERO;
                    for bus_id in &route.buses {
                        let bus = model.hardware.bus(*bus_id).expect("route uses known buses");
                        floor += match bus.kind {
                            BusKind::Can { bitrate } => {
                                // ISO-TP style segmentation into 8-byte frames.
                                let frames = size_hint.div_ceil(8).max(1) as u64;
                                can_frame_time(8, bitrate) * frames
                            }
                            BusKind::Ethernet { bitrate } => {
                                ethernet_frame_time(size_hint.min(1500), bitrate)
                            }
                            BusKind::FlexRay { .. } => SimDuration::from_micros(50),
                        };
                    }
                    if floor > bound {
                        out.push(Violation::LatencyInfeasible {
                            consumer: app.id,
                            provider: provider.id,
                            required: bound,
                            estimated: floor,
                        });
                    }
                }
            }
        }
    }
    for (bus_id, demand) in bus_demand {
        let capacity = model
            .hardware
            .bus(bus_id)
            .map(|b| b.kind.bitrate())
            .unwrap_or(0);
        // Streams may use at most 75% of a segment, leaving headroom for
        // control traffic.
        if demand * 4 > capacity * 3 {
            out.push(Violation::BandwidthOverflow {
                bus: bus_id,
                demand,
                capacity,
            });
        }
    }
}

/// `true` if `ecu` could host `app` on its own (memory, CPU, GPU) — the
/// per-candidate feasibility behind the replica check.
fn candidate_feasible(model: &SystemModel, app: &AppModel, ecu: EcuId) -> bool {
    let Some(spec) = model.hardware.ecu(ecu) else {
        return false;
    };
    if app.memory_kib > spec.ram_kib() {
        return false;
    }
    if app.needs_gpu && !spec.has_gpu() {
        return false;
    }
    if app.kind.is_deterministic() && app.wcet_on(spec.cpu()) > app.period {
        return false;
    }
    true
}

fn check_replicas(model: &SystemModel, out: &mut Vec<Violation>) {
    for (app, &required) in &model.deployment.replicas {
        if required <= 1 {
            continue;
        }
        let Some(app_model) = model.application(*app) else {
            continue; // dangling reference is reported elsewhere
        };
        let feasible = model
            .deployment
            .mapping
            .get(app)
            .map(|choice| {
                let mut distinct: Vec<EcuId> = choice.candidates().to_vec();
                distinct.sort();
                distinct.dedup();
                distinct
                    .into_iter()
                    .filter(|&e| candidate_feasible(model, app_model, e))
                    .count()
            })
            .unwrap_or(0);
        if feasible < usize::from(required) {
            out.push(Violation::InsufficientReplicaCandidates {
                app: *app,
                required,
                feasible,
            });
        }
    }
}

/// Verifies the model under one concrete app→ECU assignment.
pub fn verify(model: &SystemModel, assignment: &BTreeMap<AppId, EcuId>) -> Vec<Violation> {
    let mut out = Vec::new();
    check_references(model, &mut out);
    check_asil(model, &mut out);
    check_replicas(model, &mut out);
    check_resources(model, assignment, &mut out);
    check_communication(model, assignment, &mut out);
    out
}

/// Verifies every mapping variant the deployment admits (capped at
/// `variant_cap` combinations). Returns, per variant, the violations found;
/// an empty inner vector means that variant is clean.
pub fn verify_all_variants(
    model: &SystemModel,
    variant_cap: usize,
) -> Vec<(BTreeMap<AppId, EcuId>, Vec<Violation>)> {
    model
        .deployment
        .variants(variant_cap)
        .into_iter()
        .map(|assignment| {
            let violations = verify(model, &assignment);
            (assignment, violations)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::parse_model;

    fn base_model() -> SystemModel {
        parse_model(
            r#"
system {
  hardware {
    ecu "body"    { id 0 class low }
    ecu "gateway" { id 1 class domain }
    ecu "adas"    { id 2 class high }
    bus "can0" { id 0 can 500000 attach [0 1] }
    bus "eth0" { id 1 ethernet 100000000 attach [1 2] }
  }
  interface "speed" {
    id 10 owner 1 version 1
    event "speed" { id 1 payload {v: f64} latency 10ms critical }
  }
  application "ctrl" { id 1 deterministic asil C provides [10] period 10ms work 2 memory 512 }
  application "hmi"  { id 2 non-deterministic asil QM consumes [10 event 1] period 50ms work 1 memory 1024 }
  deployment {
    app 1 on 1
    app 2 on 2
  }
}
"#,
        )
        .unwrap()
    }

    fn fixed_assignment(model: &SystemModel) -> BTreeMap<AppId, EcuId> {
        model.deployment.variants(1).pop().unwrap()
    }

    #[test]
    fn clean_model_verifies() {
        let model = base_model();
        let violations = verify(&model, &fixed_assignment(&model));
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn dangling_owner_detected() {
        let mut model = base_model();
        model.interfaces[0].owner = AppId(99);
        let v = verify(&model, &fixed_assignment(&model));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::DanglingReference { .. })));
        // Ownership mismatch too: app1 provides a service it no longer owns.
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::OwnershipMismatch { .. })));
    }

    #[test]
    fn asil_inversion_detected() {
        let mut model = base_model();
        // Make the consumer ASIL-D while the provider stays C.
        model.applications[1].asil = dynplat_common::Asil::D;
        let v = verify(&model, &fixed_assignment(&model));
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::AsilDependency {
                consumer: AppId(2),
                provider: AppId(1)
            }
        )));
    }

    #[test]
    fn memory_overflow_detected() {
        let mut model = base_model();
        model.applications[0].memory_kib = 10 * 1024 * 1024; // 10 GiB
        let v = verify(&model, &fixed_assignment(&model));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MemoryOverflow { ecu: EcuId(1), .. })));
    }

    #[test]
    fn mmu_isolation_required_for_co_location() {
        let mut model = base_model();
        // Map both apps onto the MMU-less low-end ECU.
        model
            .deployment
            .mapping
            .insert(AppId(1), crate::ir::MappingChoice::Fixed(EcuId(0)));
        model
            .deployment
            .mapping
            .insert(AppId(2), crate::ir::MappingChoice::Fixed(EcuId(0)));
        let assignment = fixed_assignment(&model);
        let v = verify(&model, &assignment);
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MissingMmuIsolation { ecu: EcuId(0) })));
    }

    #[test]
    fn overload_detected_on_slow_cpu() {
        let mut model = base_model();
        // 2 MI of work each 10 ms is fine on a domain ECU (1200 MIPS) but
        // hopeless at 500 MI.
        model.applications[0].work_mi = 500.0;
        let v = verify(&model, &fixed_assignment(&model));
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::Unschedulable { ecu: EcuId(1), .. })));
    }

    #[test]
    fn gpu_requirement_checked() {
        let mut model = base_model();
        model.applications[0].needs_gpu = true; // mapped on ecu1 (no GPU)
        let v = verify(&model, &fixed_assignment(&model));
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::MissingGpu {
                app: AppId(1),
                ecu: EcuId(1)
            }
        )));
    }

    #[test]
    fn bandwidth_overflow_detected() {
        let mut model = parse_model(
            r#"
system {
  hardware {
    ecu "a" { id 0 class domain }
    ecu "b" { id 1 class domain }
    bus "can0" { id 0 can 500000 attach [0 1] }
  }
  interface "cam" {
    id 10 owner 1 version 1
    stream "video" { id 1 frame blob bandwidth 2000000 }
  }
  application "p" { id 1 deterministic asil B provides [10] period 10ms work 1 memory 64 }
  application "c" { id 2 non-deterministic asil QM consumes [10 stream 1] period 50ms work 1 memory 64 }
  deployment { app 1 on 0  app 2 on 1 }
}
"#,
        )
        .unwrap();
        let v = verify(&model, &fixed_assignment(&model));
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::BandwidthOverflow { bus: BusId(0), .. })),
            "2 Mbit/s stream cannot cross a 500 kbit/s CAN: {v:?}"
        );
        // Moving to Ethernet resolves it.
        model.hardware = parse_model(
            r#"
system { hardware {
    ecu "a" { id 0 class domain }
    ecu "b" { id 1 class domain }
    bus "eth0" { id 0 ethernet 100000000 attach [0 1] }
} deployment { } }
"#,
        )
        .unwrap()
        .hardware;
        let v = verify(&model, &fixed_assignment(&model));
        assert!(!v
            .iter()
            .any(|x| matches!(x, Violation::BandwidthOverflow { .. })));
    }

    #[test]
    fn latency_floor_detected_on_can() {
        let mut model = base_model();
        // Demand 100 us latency for the event across CAN+Ethernet route by
        // moving consumer to ecu0 side: provider ecu1 -> consumer ecu0 via CAN.
        model
            .deployment
            .mapping
            .insert(AppId(2), crate::ir::MappingChoice::Fixed(EcuId(0)));
        model.interfaces[0].events[0].qos.max_latency = Some(SimDuration::from_micros(100));
        let v = verify(&model, &fixed_assignment(&model));
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::LatencyInfeasible { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn all_variants_classified() {
        let mut model = base_model();
        model.deployment.mapping.insert(
            AppId(2),
            crate::ir::MappingChoice::AnyOf(vec![EcuId(0), EcuId(2)]),
        );
        let results = verify_all_variants(&model, 16);
        assert_eq!(results.len(), 2);
        // Variant mapping hmi on the MMU-less body ECU with ctrl elsewhere
        // is fine memory-wise but 1024 KiB > 512 KiB RAM: violation.
        let bad = results
            .iter()
            .find(|(a, _)| a[&AppId(2)] == EcuId(0))
            .map(|(_, v)| v)
            .unwrap();
        assert!(!bad.is_empty());
        let good = results
            .iter()
            .find(|(a, _)| a[&AppId(2)] == EcuId(2))
            .map(|(_, v)| v)
            .unwrap();
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn replica_requirements_are_checked() {
        let mut model = parse_model(
            r#"
system {
  hardware {
    ecu "a" { id 0 class high }
    ecu "b" { id 1 class high }
    ecu "c" { id 2 class low }
    bus "e" { id 0 ethernet 100000000 attach [0 1 2] }
  }
  application "lane" { id 1 deterministic asil D period 20ms work 40 memory 65536 }
  deployment { app 1 on any [0 1 2] replicas 2 }
}
"#,
        )
        .unwrap();
        assert_eq!(model.deployment.replicas_of(AppId(1)), 2);
        let assignment = fixed_assignment(&model);
        assert!(
            verify(&model, &assignment).is_empty(),
            "two high ECUs suffice"
        );
        // Demand three replicas: the low-end ECU cannot host the app
        // (memory + CPU), so only two feasible candidates exist.
        model.deployment.replicas.insert(AppId(1), 3);
        let v = verify(&model, &assignment);
        assert!(
            v.iter().any(|x| matches!(
                x,
                Violation::InsufficientReplicaCandidates {
                    app: AppId(1),
                    required: 3,
                    feasible: 2
                }
            )),
            "{v:?}"
        );
        // The DSL round-trips the replica requirement.
        let printed = crate::dsl::print_model(&model);
        assert!(printed.contains("replicas 3"));
        assert_eq!(parse_model(&printed).unwrap(), model);
    }

    #[test]
    fn violations_render_human_readably() {
        let v = Violation::MemoryOverflow {
            ecu: EcuId(1),
            demand_kib: 100,
            capacity_kib: 50,
        };
        assert!(v.to_string().contains("100 KiB"));
    }
}
