//! Integration tests of the unified `EngineConfig` schema: the golden JSON
//! snapshot (the `bcc-engine-config/v2` wire shape three consumers parse),
//! equivalence between the fluent builder setters and `from_config`, and
//! the tenant directory's class mapping.

use bcc_core::config::{BackpressurePolicy, ClassEntry, EngineConfig, Priority, RateLimit};
use bcc_core::stream::StreamEngineBuilder;
use bcc_core::tenant::{TenantConfig, TenantDirectory};
use bcc_core::ConfigError;

/// The committed example config: every field populated, so the snapshot
/// pins the complete schema.
fn golden_config() -> EngineConfig {
    let mut config = EngineConfig {
        seed: 2022,
        epsilon: 1e-6,
        workers: Some(2),
        max_workers: Some(8),
        queue_capacity: 64,
        backpressure: BackpressurePolicy::Block,
        cache_capacity: Some(128),
        ..EngineConfig::default()
    };
    config.class_entry(Priority::Interactive).weight = 4;
    let bulk = config.class_entry(Priority::Bulk);
    bulk.weight = 1;
    bulk.rate_limit = Some(RateLimit::new(2, 8));
    config.class_entry(Priority::custom(0)).weight = 3;
    config
}

#[test]
fn engine_config_json_schema_matches_the_golden_snapshot() {
    let json = serde_json::to_string_pretty(&golden_config()).unwrap();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/engine_config.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, format!("{json}\n")).unwrap();
    }
    let golden = std::fs::read_to_string(path).expect(
        "tests/golden/engine_config.json exists (regenerate with scripts/regen-goldens.sh)",
    );
    assert_eq!(
        json,
        golden.trim_end(),
        "EngineConfig JSON schema changed — regenerate tests/golden/engine_config.json with \
         scripts/regen-goldens.sh and bump ENGINE_CONFIG_SCHEMA if the change is not additive"
    );
    // And it round-trips bit-identically.
    let back: EngineConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back, golden_config());
}

#[test]
fn from_config_equals_the_fluent_setter_chain() {
    let fluent = StreamEngineBuilder::default()
        .seed(2022)
        .elastic_workers(2, 8)
        .cache_capacity(128)
        .class_weight(Priority::Interactive, 4)
        .class_weight(Priority::Bulk, 1)
        .class_rate_limit(Priority::Bulk, RateLimit::new(2, 8))
        .class_weight(Priority::custom(0), 3);
    let from_config = StreamEngineBuilder::from_config(golden_config()).unwrap();
    assert_eq!(fluent.to_config(), from_config.to_config());
    assert_eq!(fluent.to_config(), golden_config());
}

#[test]
fn both_builders_consume_the_same_config() {
    let config = golden_config();
    let stream = StreamEngineBuilder::from_config(config.clone())
        .unwrap()
        .build();
    assert_eq!(stream.seed(), config.seed);
    assert_eq!(stream.worker_bounds(), (2, 8));
    assert_eq!(stream.queue_capacity(), 64);
    assert_eq!(stream.cache_capacity(), Some(128));
    assert_eq!(stream.class_weight(Priority::custom(0)), 3);
    assert_eq!(
        stream.class_rate_limit(Priority::Bulk),
        Some(RateLimit::new(2, 8))
    );
}

#[test]
fn invalid_configs_are_rejected_by_both_builders() {
    let mut config = golden_config();
    config.queue_capacity = 0;
    assert_eq!(
        StreamEngineBuilder::from_config(config).err(),
        Some(ConfigError::ZeroQueueCapacity)
    );
}

#[test]
fn a_config_built_by_setters_round_trips_through_json() {
    let builder = StreamEngineBuilder::default()
        .seed(77)
        .backpressure(BackpressurePolicy::Reject)
        .cache_capacity(0)
        .class_rate_limit(Priority::custom(9), RateLimit::new(1, 4));
    let json = serde_json::to_string(&builder.to_config()).unwrap();
    let back: EngineConfig = serde_json::from_str(&json).unwrap();
    let rebuilt = StreamEngineBuilder::from_config(back).unwrap();
    assert_eq!(rebuilt.to_config(), builder.to_config());
}

#[test]
fn tenant_directory_classes_are_spellable_in_scenario_files() {
    // Tenants map to `custom-<id>` labels, the same strings the load
    // harness's scenario schema accepts as class names.
    let mut dir = TenantDirectory::new();
    let victim = dir.register(TenantConfig::new("victim")).unwrap();
    let flooder = dir.register(TenantConfig::new("flooder")).unwrap();
    assert_eq!(victim.label(), "custom-0");
    assert_eq!(flooder.label(), "custom-1");
    assert_eq!(Priority::parse_label("custom-1"), Some(flooder));

    let mut config = EngineConfig::default();
    dir.apply(&mut config);
    assert!(config
        .classes
        .iter()
        .any(|e| e == &ClassEntry::default_for(victim)));
}
