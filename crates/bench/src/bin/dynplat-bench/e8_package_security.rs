//! E8 (§4.1): package security — local verification cost per ECU crypto
//! class, rejection of tampered/unsigned/replayed packages, and the update
//! master path for crypto-less ECUs including master redundancy.
//!
//! Expected shape: verification throughput is bounded by the ECU's crypto
//! tier (software ≫ accelerator cost); the weak-ECU voucher check (one
//! HMAC) is far cheaper than a signature verification; every manipulated
//! package class is rejected; the redundant master keeps serving after a
//! primary failure.

use dynplat_bench::{us, Table};
use dynplat_common::time::SimDuration;
use dynplat_common::{AppId, EcuId};
use dynplat_hw::ecu::CryptoSupport;
use dynplat_security::master::{RedundantMasters, UpdateMaster, WeakEcuVerifier};
use dynplat_security::package::{InstallGate, KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat_security::sign::KeyPair;
use std::time::Instant;

pub fn run() {
    let authority = KeyPair::from_seed(b"oem");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let package = UpdatePackage::new(AppId(1), Version::new(2, 0, 0), 7, vec![0xAB; 64 * 1024]);
    let signed = SignedPackage::create(&package, &authority);

    // -- verification cost per crypto class ----------------------------------
    // Measure the real signature verification once, then scale by the
    // hardware cost model (DESIGN.md §5: relative cost, not absolute).
    let reps = 200u32;
    let start = Instant::now();
    for _ in 0..reps {
        signed.verify(&registry).expect("verifies");
    }
    let base = start.elapsed() / reps;
    let base_sim = SimDuration::from_nanos(base.as_nanos() as u64);

    let table = Table::new(
        "E8a — 64 KiB package verification cost by ECU crypto class",
        &["crypto_class", "relative_cost", "modeled_us"],
    );
    for class in [
        CryptoSupport::Hsm,
        CryptoSupport::Accelerator,
        CryptoSupport::Software,
    ] {
        let factor = class.verify_cost_factor().expect("verifying classes");
        table.row(&[
            class.to_string(),
            format!("{factor:.1}"),
            us(base_sim.mul_f64(factor)),
        ]);
    }
    println!("# crypto class `none`: cannot verify locally — delegated to the update master");

    // -- attack rejection -----------------------------------------------------
    let table = Table::new(
        "E8b — manipulated package rejection",
        &["attack", "rejected"],
    );
    let mut tampered = signed.clone();
    tampered.package_bytes[1000] ^= 0x80;
    table.row(&[
        "payload_bit_flip".into(),
        tampered.verify(&registry).is_err().to_string(),
    ]);

    let rogue = KeyPair::from_seed(b"rogue authority");
    let forged = SignedPackage::create(&package, &rogue);
    table.row(&[
        "unsigned_authority".into(),
        forged.verify(&registry).is_err().to_string(),
    ]);

    let mut gate = InstallGate::new();
    gate.accept(&signed, &registry).expect("first install");
    table.row(&[
        "replay".into(),
        gate.accept(&signed, &registry).is_err().to_string(),
    ]);
    let old = SignedPackage::create(
        &UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 3, vec![1]),
        &authority,
    );
    table.row(&[
        "rollback".into(),
        gate.accept(&old, &registry).is_err().to_string(),
    ]);

    let mut wrong_sig = signed.clone();
    wrong_sig.signature = authority.sign(b"something else");
    table.row(&[
        "signature_swap".into(),
        wrong_sig.verify(&registry).is_err().to_string(),
    ]);

    // -- update master for weak ECUs -------------------------------------------
    let psk = [0x55u8; 32];
    let mut m1 = UpdateMaster::new(registry.clone());
    let mut m2 = UpdateMaster::new(registry.clone());
    m1.enroll(EcuId(0), psk);
    m2.enroll(EcuId(0), psk);
    let weak = WeakEcuVerifier::new(EcuId(0), psk);

    // Voucher check vs signature verification, protocol cost only: both
    // sides must hash the image either way, so compare on a tiny package
    // where the asymmetric operation dominates. On a real low-end ECU the
    // gap is far larger still (software big-int vs one HMAC block).
    let small = UpdatePackage::new(AppId(2), Version::new(1, 0, 0), 1, vec![0u8; 64]);
    let small_signed = SignedPackage::create(&small, &authority);
    let (_, small_voucher) = m1
        .verify_for(&small_signed, EcuId(0))
        .expect("master verifies");
    let reps = 20_000u32;
    let start = Instant::now();
    for _ in 0..reps {
        assert!(weak.accept(&small_signed.package_bytes, &small_voucher));
    }
    let voucher_cost = start.elapsed() / reps;
    let start = Instant::now();
    for _ in 0..reps {
        small_signed.verify(&registry).expect("verifies");
    }
    let verify_cost = start.elapsed() / reps;
    println!(
        "# E8c — protocol cost on a 64 B package: voucher check {voucher_cost:?} vs signature \
         verification {verify_cost:?}. NOTE: the stand-in signature runs over a toy 61-bit \
         field (DESIGN.md S5), so asymmetric verification is unrealistically cheap here; on a \
         production curve it costs orders of magnitude more than the voucher single HMAC, \
         and the none-class ECU cannot run it at all."
    );

    // Redundant masters: primary fails, backup serves.
    let mut group = RedundantMasters::new(vec![m1, m2]);
    assert!(group.verify_for(&signed, EcuId(0)).is_ok());
    group.fail(0);
    let served_after_failure = group.verify_for(&signed, EcuId(0)).is_ok();
    group.fail(1);
    let served_after_total_loss = group.verify_for(&signed, EcuId(0)).is_ok();
    let table = Table::new(
        "E8d — redundant update masters",
        &["state", "weak_ecu_served"],
    );
    table.row(&["both_masters_up".into(), "true".into()]);
    table.row(&["primary_failed".into(), served_after_failure.to_string()]);
    table.row(&[
        "all_masters_failed".into(),
        served_after_total_loss.to_string(),
    ]);
}
