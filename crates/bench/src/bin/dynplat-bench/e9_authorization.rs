//! E9 (§4.2): authorization — model-derived access control and runtime
//! permission updates. The costs of session setup after the lightweight
//! framework of \[10\] and of one authenticated message are rows of `micro`.
//!
//! Expected shape: the model-generated matrix grants exactly the declared
//! bindings and nothing else; wildcard diagnosis grants are visible for
//! audit; permission packs merged at runtime take effect immediately and
//! bump the matrix version.

use dynplat_bench::Table;
use dynplat_common::{AppId, MethodId, ServiceId};
use dynplat_model::dsl::parse_model;
use dynplat_model::generate::access_matrix;
use dynplat_security::authz::{AccessControlMatrix, Permission};

const MODEL: &str = r#"
system {
  hardware {
    ecu "gw" { id 1 class domain }
    bus "e" { id 0 ethernet 100000000 attach [1] }
  }
  interface "climate"  { id 1 owner 1 version 1 method "set" { id 1 request u8 response bool } }
  interface "door"     { id 2 owner 1 version 1 method "lock" { id 1 request bool response bool } }
  interface "state"    { id 3 owner 1 version 1 event "speed" { id 1 payload {v: f64} } }
  application "server" { id 1 deterministic asil B provides [1 2 3] period 10ms work 1 memory 128 }
  application "hmi"    { id 2 non-deterministic asil QM consumes [1 method 1, 3 event 1] period 50ms work 1 memory 128 }
  application "keyfob" { id 3 non-deterministic asil B consumes [2 method 1] period 100ms work 1 memory 128 }
  deployment { app 1 on 1  app 2 on 1  app 3 on 1 }
}
"#;

pub fn run() {
    // -- model-derived matrix ---------------------------------------------------
    let model = parse_model(MODEL).expect("parses");
    let matrix = access_matrix(&model);
    let table = Table::new(
        "E9b — model-derived access decisions (deny-by-default)",
        &["client", "service", "permission", "decision"],
    );
    let checks = [
        (AppId(2), ServiceId(1), Permission::Call(MethodId(1))), // declared
        (AppId(2), ServiceId(3), Permission::Subscribe),         // declared
        (AppId(2), ServiceId(2), Permission::Call(MethodId(1))), // NOT declared
        (AppId(3), ServiceId(2), Permission::Call(MethodId(1))), // declared
        (AppId(3), ServiceId(1), Permission::Call(MethodId(1))), // NOT declared
        (AppId(9), ServiceId(1), Permission::Call(MethodId(1))), // unknown app
    ];
    for (client, service, perm) in checks {
        table.row(&[
            client.to_string(),
            service.to_string(),
            perm.to_string(),
            format!("{:?}", matrix.check(client, service, perm)),
        ]);
    }

    // -- runtime permission adjustment & audit ----------------------------------
    let mut live = matrix.clone();
    let v0 = live.version();
    let mut diagnosis_pack = AccessControlMatrix::new();
    for service in [ServiceId(1), ServiceId(2), ServiceId(3)] {
        diagnosis_pack.grant(AppId(42), service, Permission::All);
    }
    live.merge(&diagnosis_pack);
    let table = Table::new(
        "E9c — runtime permission pack (data logger, §4.2)",
        &["metric", "value"],
    );
    table.row(&["version_before".into(), v0.to_string()]);
    table.row(&["version_after".into(), live.version().to_string()]);
    table.row(&[
        "logger_subscribe_state".into(),
        format!(
            "{:?}",
            live.check(AppId(42), ServiceId(3), Permission::Subscribe)
        ),
    ]);
    table.row(&[
        "wildcard_grants_for_audit".into(),
        live.wildcard_grants().count().to_string(),
    ]);
    // Revocation takes effect immediately.
    live.revoke(AppId(42), ServiceId(3), Permission::All);
    table.row(&[
        "logger_after_revoke".into(),
        format!(
            "{:?}",
            live.check(AppId(42), ServiceId(3), Permission::Subscribe)
        ),
    ]);
}
