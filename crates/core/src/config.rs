//! One serde-roundtrippable configuration schema for the serving engine.
//!
//! [`EngineConfig`] is the single source of truth for the engine's
//! deterministic knobs: worker bounds, queue capacity, backpressure, cache
//! capacity, WFQ class weights and rate limits, seed and epsilon. Three
//! consumers share the one schema:
//!
//! * **The engine builder.** [`crate::stream::StreamEngineBuilder`] holds
//!   an `EngineConfig` internally; every fluent setter is a thin wrapper
//!   over one of its fields, and `from_config` constructs a builder from a
//!   validated config directly.
//! * **The `bcc-served` daemon.** Its `--config <file>` flag reads this
//!   exact JSON, and its handshake echoes the engine's effective config
//!   back to every client, so a client can see the server's scheduling
//!   discipline without a side channel.
//! * **Operators.** The schema is versioned ([`ENGINE_CONFIG_SCHEMA`]) and
//!   validated ([`EngineConfig::validate`] returns a typed
//!   [`ConfigError`]), so a config file that drifts from the binary fails
//!   loudly instead of silently misconfiguring a serving process. Unknown
//!   keys are ignored when parsing, so a change that removes or reinterprets
//!   a key bumps the tag: a `v1` file that still spells the removed
//!   `shards`, `eviction_policy` or `cost_aware_tags` keys fails validation
//!   instead of running with them dropped.
//!
//! This module also re-exports the serving vocabulary — [`Priority`],
//! [`RateLimit`], [`BackpressurePolicy`] — so `use bcc_core::config::*`
//! brings in everything a config file can spell.
//!
//! # Example
//!
//! ```
//! use bcc_core::config::{EngineConfig, Priority, RateLimit};
//! use bcc_core::stream::StreamEngineBuilder;
//!
//! let mut config = EngineConfig::default();
//! config.queue_capacity = 8;
//! config.class_entry(Priority::Bulk).rate_limit = Some(RateLimit::new(1, 4));
//!
//! // Round-trips through JSON unchanged…
//! let json = serde_json::to_string_pretty(&config).unwrap();
//! let back: EngineConfig = serde_json::from_str(&json).unwrap();
//! assert_eq!(back, config);
//!
//! // …and builds a validated engine.
//! let engine = StreamEngineBuilder::from_config(config).unwrap().build();
//! assert_eq!(engine.queue_capacity(), 8);
//! ```

use bcc_runtime::ModelConfig;
use serde::{Deserialize, Serialize};

pub use crate::stream::BackpressurePolicy;
pub use crate::wfq::{Priority, RateLimit};

/// The version tag written into [`EngineConfig::schema`].
pub const ENGINE_CONFIG_SCHEMA: &str = "bcc-engine-config/v2";

/// One scheduling class in an [`EngineConfig`]: the class, its WFQ weight
/// and an optional token-bucket rate limit. Classes serialize by label
/// (`"interactive"`, `"bulk"`, `"custom-<id>"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassEntry {
    /// The scheduling class this entry configures.
    pub class: Priority,
    /// The class's WFQ weight (validated ≥ 1).
    pub weight: u32,
    /// The class's token-bucket rate limit, if any.
    pub rate_limit: Option<RateLimit>,
}

impl ClassEntry {
    /// An entry for `class` at its default weight with no rate limit.
    pub fn default_for(class: Priority) -> Self {
        ClassEntry {
            class,
            weight: class.default_weight(),
            rate_limit: None,
        }
    }
}

/// The unified, serializable engine configuration — every deterministic
/// knob of [`crate::stream::StreamEngine`] in one versioned struct. See the
/// [module docs](self) for the three consumers of the schema.
///
/// Knobs that cannot be spelled in a config file — the live
/// [`crate::cost::CostModel`], the injectable [`crate::clock::Clock`] and
/// the [`crate::telemetry::TelemetrySink`] — stay builder-only; a config
/// describes a *reproducible* engine, and those three carry run-time state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Schema tag consumers dispatch on ([`ENGINE_CONFIG_SCHEMA`]).
    pub schema: String,
    /// The clique model the worker sessions simulate.
    pub model: ModelConfig,
    /// Master seed per-submission seeds are derived from.
    pub seed: u64,
    /// Default solve accuracy of the worker sessions.
    pub epsilon: f64,
    /// Fixed worker count, or the **minimum** of an elastic pool when
    /// [`EngineConfig::max_workers`] is set. `None` = the machine's
    /// available parallelism, capped at 8.
    pub workers: Option<usize>,
    /// Upper bound of an elastic pool; `None` pins the pool at
    /// [`EngineConfig::workers`].
    pub max_workers: Option<usize>,
    /// Bound of the stream engine's admission queue.
    pub queue_capacity: usize,
    /// What a full admission queue does to new submissions.
    pub backpressure: BackpressurePolicy,
    /// Entry bound of the prepared-Laplacian cache; `None` = unbounded.
    /// Beyond it the least recently used entry is evicted.
    pub cache_capacity: Option<usize>,
    /// Scheduling-class overrides, in configuration order. Classes absent
    /// here run at their default weight with no rate limit; the built-in
    /// classes always exist.
    pub classes: Vec<ClassEntry>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            schema: ENGINE_CONFIG_SCHEMA.to_string(),
            model: ModelConfig::bcc(),
            seed: 2022,
            epsilon: 1e-6,
            workers: None,
            max_workers: None,
            queue_capacity: 64,
            backpressure: BackpressurePolicy::Block,
            cache_capacity: None,
            classes: Vec::new(),
        }
    }
}

impl EngineConfig {
    /// The mutable [`ClassEntry`] of `class`, appending a default entry if
    /// the class is not configured yet.
    pub fn class_entry(&mut self, class: Priority) -> &mut ClassEntry {
        if let Some(i) = self.classes.iter().position(|e| e.class == class) {
            return &mut self.classes[i];
        }
        self.classes.push(ClassEntry::default_for(class));
        self.classes.last_mut().expect("just pushed")
    }

    /// Checks every invariant a running engine assumes, returning the first
    /// violation as a typed [`ConfigError`]. Builders constructed through
    /// `from_config` run this; the fluent setters instead clamp (as they
    /// always have), so hand-built configs fail loudly while builder chains
    /// stay infallible.
    ///
    /// # Errors
    ///
    /// See the [`ConfigError`] variants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.schema != ENGINE_CONFIG_SCHEMA {
            return Err(ConfigError::UnsupportedSchema {
                found: self.schema.clone(),
            });
        }
        if !(self.epsilon.is_finite() && self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(ConfigError::InvalidEpsilon {
                epsilon: self.epsilon,
            });
        }
        if self.workers == Some(0) {
            return Err(ConfigError::ZeroWorkers);
        }
        if let Some(max) = self.max_workers {
            let min = self.workers.unwrap_or(1);
            if max < min.max(1) {
                return Err(ConfigError::InvalidWorkerBounds { min, max });
            }
        }
        if self.queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if self.cache_capacity == Some(0) {
            return Err(ConfigError::ZeroCacheCapacity);
        }
        for (i, entry) in self.classes.iter().enumerate() {
            if self.classes[..i].iter().any(|e| e.class == entry.class) {
                return Err(ConfigError::DuplicateClass { class: entry.class });
            }
            if entry.weight == 0 {
                return Err(ConfigError::ZeroClassWeight { class: entry.class });
            }
            if let Some(limit) = entry.rate_limit {
                if limit.tokens == 0 || limit.window == 0 {
                    return Err(ConfigError::InvalidRateLimit {
                        class: entry.class,
                        tokens: limit.tokens,
                        window: limit.window,
                    });
                }
            }
        }
        Ok(())
    }
}

/// A validation failure of an [`EngineConfig`] — each variant names the
/// invariant a running engine would otherwise assume.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The config's schema tag is not [`ENGINE_CONFIG_SCHEMA`].
    UnsupportedSchema {
        /// The tag found in the config.
        found: String,
    },
    /// `epsilon` must be finite and in `(0, 1)`.
    InvalidEpsilon {
        /// The offending accuracy.
        epsilon: f64,
    },
    /// A fixed worker count of zero.
    ZeroWorkers,
    /// Elastic bounds with `max < min`.
    InvalidWorkerBounds {
        /// The configured minimum (1 if `workers` was `None`).
        min: usize,
        /// The configured maximum.
        max: usize,
    },
    /// An admission queue of capacity zero would reject everything.
    ZeroQueueCapacity,
    /// A cache capacity of zero; use `None` for "no cache bound".
    ZeroCacheCapacity,
    /// The same class is configured twice.
    DuplicateClass {
        /// The class appearing more than once.
        class: Priority,
    },
    /// A WFQ weight of zero would starve the class forever.
    ZeroClassWeight {
        /// The class with the zero weight.
        class: Priority,
    },
    /// A rate limit with a zero token budget or window.
    InvalidRateLimit {
        /// The class carrying the limit.
        class: Priority,
        /// The configured token budget.
        tokens: u32,
        /// The configured window length.
        window: u32,
    },
    /// The same tenant name appears twice in a
    /// [`crate::tenant::TenantDirectory`].
    DuplicateTenant {
        /// The name appearing more than once.
        name: String,
    },
    /// A tenant directory past the 256 [`Priority::Custom`] class ids.
    TooManyTenants {
        /// The offending tenant count.
        count: usize,
    },
    /// A tenant with a WFQ weight of zero would be starved forever.
    ZeroTenantWeight {
        /// The tenant with the zero weight.
        name: String,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnsupportedSchema { found } => write!(
                f,
                "unsupported engine-config schema `{found}` (this binary speaks `{ENGINE_CONFIG_SCHEMA}`)"
            ),
            ConfigError::InvalidEpsilon { epsilon } => {
                write!(f, "epsilon must be finite and in (0, 1), got {epsilon}")
            }
            ConfigError::ZeroWorkers => write!(f, "worker count must be at least 1"),
            ConfigError::InvalidWorkerBounds { min, max } => write!(
                f,
                "elastic worker bounds must satisfy max >= min >= 1, got min {min}, max {max}"
            ),
            ConfigError::ZeroQueueCapacity => {
                write!(f, "admission queue capacity must be at least 1")
            }
            ConfigError::ZeroCacheCapacity => write!(
                f,
                "cache capacity must be at least 1 (omit the bound for an unbounded cache)"
            ),
            ConfigError::DuplicateClass { class } => {
                write!(f, "class `{}` is configured twice", class.label())
            }
            ConfigError::ZeroClassWeight { class } => {
                write!(f, "class `{}` has WFQ weight 0", class.label())
            }
            ConfigError::InvalidRateLimit {
                class,
                tokens,
                window,
            } => write!(
                f,
                "class `{}` has an invalid rate limit ({tokens} tokens per window of {window})",
                class.label()
            ),
            ConfigError::DuplicateTenant { name } => {
                write!(f, "tenant `{name}` is registered twice")
            }
            ConfigError::TooManyTenants { count } => write!(
                f,
                "{count} tenants exceed the 256 available custom scheduling classes"
            ),
            ConfigError::ZeroTenantWeight { name } => {
                write!(f, "tenant `{name}` has WFQ weight 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> EngineConfig {
        let mut config = EngineConfig {
            seed: 7,
            epsilon: 1e-4,
            workers: Some(2),
            max_workers: Some(6),
            queue_capacity: 16,
            backpressure: BackpressurePolicy::Reject,
            cache_capacity: Some(32),
            ..EngineConfig::default()
        };
        config.class_entry(Priority::Interactive).weight = 8;
        let bulk = config.class_entry(Priority::Bulk);
        bulk.weight = 2;
        bulk.rate_limit = Some(RateLimit::new(1, 4));
        config.class_entry(Priority::custom(3)).weight = 5;
        config
    }

    #[test]
    fn default_config_validates() {
        EngineConfig::default().validate().unwrap();
    }

    #[test]
    fn sample_config_round_trips_through_json() {
        let config = sample();
        config.validate().unwrap();
        let json = serde_json::to_string_pretty(&config).unwrap();
        let back: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn a_v1_config_spelling_a_removed_key_parses_but_fails_validation() {
        let json = serde_json::to_string(&EngineConfig::default())
            .unwrap()
            .replace(ENGINE_CONFIG_SCHEMA, "bcc-engine-config/v1")
            .replacen('{', "{\"eviction_policy\":\"cost-aware\",\"shards\":4,", 1);
        let parsed: EngineConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(
            parsed.validate(),
            Err(ConfigError::UnsupportedSchema {
                found: "bcc-engine-config/v1".to_string()
            })
        );
    }

    #[test]
    fn class_labels_round_trip() {
        for class in [
            Priority::Interactive,
            Priority::Bulk,
            Priority::custom(0),
            Priority::custom(255),
        ] {
            let json = serde_json::to_string(&class).unwrap();
            let back: Priority = serde_json::from_str(&json).unwrap();
            assert_eq!(back, class);
        }
    }

    #[test]
    fn unknown_class_label_is_a_typed_error() {
        assert!(serde_json::from_str::<Priority>("\"custom-256\"").is_err());
        assert!(serde_json::from_str::<Priority>("\"urgent\"").is_err());
        assert!(serde_json::from_str::<BackpressurePolicy>("\"drop\"").is_err());
    }

    #[test]
    fn validation_rejects_each_invariant_violation() {
        let mut c = sample();
        c.schema = "bcc-engine-config/v0".to_string();
        assert!(matches!(
            c.validate(),
            Err(ConfigError::UnsupportedSchema { .. })
        ));

        let mut c = sample();
        c.epsilon = 0.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidEpsilon { .. })
        ));

        let mut c = sample();
        c.workers = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroWorkers));

        let mut c = sample();
        c.workers = Some(4);
        c.max_workers = Some(2);
        assert_eq!(
            c.validate(),
            Err(ConfigError::InvalidWorkerBounds { min: 4, max: 2 })
        );

        let mut c = sample();
        c.queue_capacity = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueCapacity));

        let mut c = sample();
        c.cache_capacity = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroCacheCapacity));

        let mut c = sample();
        c.classes.push(ClassEntry::default_for(Priority::Bulk));
        assert_eq!(
            c.validate(),
            Err(ConfigError::DuplicateClass {
                class: Priority::Bulk
            })
        );

        let mut c = sample();
        c.class_entry(Priority::custom(9)).weight = 0;
        assert_eq!(
            c.validate(),
            Err(ConfigError::ZeroClassWeight {
                class: Priority::custom(9)
            })
        );

        let mut c = sample();
        c.class_entry(Priority::Bulk).rate_limit = Some(RateLimit {
            tokens: 0,
            window: 4,
        });
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidRateLimit { .. })
        ));
    }
}
