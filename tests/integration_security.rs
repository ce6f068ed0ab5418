//! Cross-crate security integration: the full chain from model-derived
//! permissions through session authentication to signed deployment.

use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, EcuId, ServiceId};
use dynplat::core::DynamicPlatform;
use dynplat::model::dsl::parse_model;
use dynplat::model::generate::access_matrix;
use dynplat::security::authn::{service_accept_ticket, KeyServer, Principal, SecureChannel};
use dynplat::security::authz::Permission;
use dynplat::security::master::{VoucherIssuer, WeakEcuVerifier};
use dynplat::security::package::{
    KeyRegistry, PackageError, SignedPackage, UpdatePackage, Version,
};
use dynplat::security::sign::KeyPair;

const MODEL: &str = r#"
system {
  hardware {
    ecu "weak" { id 0 class low }
    ecu "gw"   { id 1 class domain }
    bus "can0" { id 0 can 500000 attach [0 1] }
  }
  interface "door" {
    id 5 owner 1 version 1
    method "lock" { id 1 request bool response bool }
  }
  application "doorsrv" { id 1 deterministic asil B provides [5] period 50ms work 1 memory 128 }
  application "keyfob"  { id 2 non-deterministic asil B consumes [5 method 1] period 100ms work 1 memory 128 }
  deployment { app 1 on 1  app 2 on 1 }
}
"#;

#[test]
fn model_derived_matrix_drives_platform_authorization() {
    let model = parse_model(MODEL).expect("parses");
    let matrix = access_matrix(&model);
    let authority = KeyPair::from_seed(b"authority");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let mut platform = DynamicPlatform::new(registry);
    for ecu in model.hardware.ecus() {
        platform.add_node(ecu.clone());
    }
    platform.set_access_matrix(matrix);

    // Deploy the door service.
    let app = model.application(AppId(1)).expect("present").clone();
    let signed = SignedPackage::create(
        &UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 1, vec![1]),
        &authority,
    );
    platform
        .deploy(SimTime::ZERO, EcuId(1), app, &signed)
        .expect("deploys");

    // The declared consumer may call; an undeclared app may not; even the
    // declared consumer may not subscribe (it only declared the method).
    use dynplat::common::MethodId;
    let now = SimTime::ZERO;
    assert!(platform
        .bind(now, AppId(2), ServiceId(5), Permission::Call(MethodId(1)))
        .is_ok());
    assert!(platform
        .bind(now, AppId(99), ServiceId(5), Permission::Call(MethodId(1)))
        .is_err());
    assert!(platform
        .bind(now, AppId(2), ServiceId(5), Permission::Subscribe)
        .is_err());
}

#[test]
fn authenticated_session_carries_an_authorized_call() {
    // AuthN (after [10]) on top of authZ: session grant, ticket check,
    // tamper-proof message exchange.
    let mut key_server = KeyServer::new();
    let client_key = [0x31; 32];
    let service_key = [0x32; 32];
    key_server.enroll(Principal::Client(AppId(2)), client_key);
    key_server.enroll(Principal::Service(ServiceId(5)), service_key);

    let grant = key_server
        .grant_session(AppId(2), ServiceId(5))
        .expect("granted");
    let mut service_side =
        service_accept_ticket(&service_key, AppId(2), ServiceId(5), &grant).expect("ticket ok");
    let mut client_side = SecureChannel::new(grant.session_key);

    let request = client_side.seal(b"lock(true)");
    assert_eq!(
        service_side.open(&request).expect("authentic"),
        b"lock(true)"
    );
    // Replay of the same message is rejected.
    assert!(service_side.open(&request).is_err());
}

#[test]
fn weak_ecu_install_path_uses_master_end_to_end() {
    let model = parse_model(MODEL).expect("parses");
    let authority = KeyPair::from_seed(b"authority");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());

    let psk = [0x77u8; 32];
    let mut master = VoucherIssuer::new(registry.clone());
    master.enroll(EcuId(0), psk);

    let mut platform = DynamicPlatform::new(registry);
    for ecu in model.hardware.ecus() {
        platform.add_node(ecu.clone());
    }
    platform.set_update_master(master.clone());

    let app = model.application(AppId(2)).expect("present").clone();
    let signed = SignedPackage::create(
        &UpdatePackage::new(AppId(2), Version::new(1, 0, 0), 1, vec![7; 32]),
        &authority,
    );
    // Platform-level install succeeds through the master...
    platform
        .deploy(SimTime::ZERO, EcuId(0), app, &signed)
        .expect("weak ECU deploys");
    // ...and the voucher the master issues is verifiable by the weak ECU's
    // own HMAC check (the symmetric re-authentication of §4.1).
    let (_, voucher) = master.verify_for(&signed, EcuId(0)).expect("verifies");
    assert!(WeakEcuVerifier::new(EcuId(0), psk).accept(&signed.package_bytes, &voucher));
}

#[test]
fn rollback_is_refused_across_the_whole_platform() {
    let authority = KeyPair::from_seed(b"authority");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let mut platform = DynamicPlatform::new(registry);
    platform.add_node(dynplat::hw::ecu::EcuSpec::of_class(
        EcuId(1),
        "gw",
        dynplat::hw::ecu::EcuClass::Domain,
    ));
    let model = parse_model(MODEL).expect("parses");
    let app = model.application(AppId(1)).expect("present").clone();

    let v2 = SignedPackage::create(
        &UpdatePackage::new(AppId(1), Version::new(2, 0, 0), 5, vec![2]),
        &authority,
    );
    platform
        .deploy(SimTime::ZERO, EcuId(1), app.clone(), &v2)
        .expect("v2 deploys");
    platform.stop_app(SimTime::ZERO, AppId(1)).expect("stopped");

    // An older, but correctly signed, package must be refused.
    let v1 = SignedPackage::create(
        &UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 3, vec![1]),
        &authority,
    );
    let err = platform
        .deploy(SimTime::ZERO, EcuId(1), app, &v1)
        .unwrap_err();
    assert!(matches!(
        err,
        dynplat::core::PlatformError::Package(PackageError::ReplayOrRollback { .. })
    ));
}

#[test]
fn runtime_permission_update_takes_effect_without_redeploy() {
    let model = parse_model(MODEL).expect("parses");
    let authority = KeyPair::from_seed(b"authority");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let mut platform = DynamicPlatform::new(registry);
    for ecu in model.hardware.ecus() {
        platform.add_node(ecu.clone());
    }
    let app = model.application(AppId(1)).expect("present").clone();
    let signed = SignedPackage::create(
        &UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 1, vec![1]),
        &authority,
    );
    platform
        .deploy(SimTime::ZERO, EcuId(1), app, &signed)
        .expect("deploys");

    // The diagnosis logger gets a wildcard at runtime (§4.2's data-logger
    // scenario) — auditable through the matrix, no redeploy needed.
    let logger = AppId(42);
    assert!(platform
        .bind(SimTime::ZERO, logger, ServiceId(5), Permission::Subscribe)
        .is_err());
    let mut pack = dynplat::security::authz::AccessControlMatrix::new();
    pack.grant(logger, ServiceId(5), Permission::All);
    platform.merge_permissions(&pack);
    assert!(platform
        .bind(SimTime::ZERO, logger, ServiceId(5), Permission::Subscribe)
        .is_ok());

    let _ = SimDuration::ZERO;
}
