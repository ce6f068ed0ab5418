//! E8 (§4.1): package security — local verification cost per ECU crypto
//! class, rejection of tampered/unsigned/replayed packages, and the update
//! master path for crypto-less ECUs including master redundancy.
//!
//! Expected shape: verification cost is set by the ECU's crypto tier
//! (software ≫ accelerator cost); every manipulated package class is
//! rejected; the redundant master keeps serving after a primary failure.
//! The wall-clock costs (package verification, and the weak-ECU voucher
//! check against a signature verification) are rows of `micro`.

use dynplat_bench::Table;
use dynplat_common::{AppId, EcuId};
use dynplat_hw::ecu::CryptoSupport;
use dynplat_security::master::{RedundantMasters, VoucherIssuer};
use dynplat_security::package::{InstallGate, KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat_security::sign::KeyPair;

pub fn run() {
    let authority = KeyPair::from_seed(b"oem");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let package = UpdatePackage::new(AppId(1), Version::new(2, 0, 0), 7, vec![0xAB; 64 * 1024]);
    let signed = SignedPackage::create(&package, &authority);

    // -- verification cost per crypto class ----------------------------------
    // Relative to an accelerator, per the hardware cost model (DESIGN.md §5);
    // the `crypto/verify_signed_package_64KiB` row of `micro` times the
    // accelerator-class baseline.
    let table = Table::new(
        "E8a — 64 KiB package verification cost by ECU crypto class",
        &["crypto_class", "relative_cost"],
    );
    for class in [
        CryptoSupport::Hsm,
        CryptoSupport::Accelerator,
        CryptoSupport::Software,
    ] {
        let factor = class.verify_cost_factor().expect("verifying classes");
        table.row(&[class.to_string(), format!("{factor:.1}")]);
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
    let mut m1 = VoucherIssuer::new(registry.clone());
    let mut m2 = VoucherIssuer::new(registry.clone());
    m1.enroll(EcuId(0), psk);
    m2.enroll(EcuId(0), psk);

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
