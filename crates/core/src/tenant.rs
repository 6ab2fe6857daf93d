//! Multi-tenant routing and accounting over the serving engine.
//!
//! A *tenant* is one externally authenticated client population sharing a
//! serving process — the unit of isolation the `bcc-served` daemon offers.
//! This module is deliberately thin, because the scheduler already supports
//! an open class set: a tenant **is** a [`Priority::custom`] WFQ class plus
//! accounting. Three pieces compose the isolation story:
//!
//! * **Routing.** A [`TenantDirectory`] maps tenant names to dense
//!   [`Priority::Custom`] class ids in registration order; every request a
//!   tenant submits is scheduled under its own class, so weighted fair
//!   queueing isolates its latency share from every other tenant's.
//! * **Shaping.** Each [`TenantConfig`] carries the class's WFQ weight and
//!   optional token-bucket [`RateLimit`];
//!   [`TenantDirectory::apply`] writes them into an [`EngineConfig`]'s
//!   class table, so a flooding tenant is throttled by the scheduler
//!   itself, not by per-connection bookkeeping.
//! * **Cache quotas.** The shared prepared-Laplacian cache is the one
//!   resource WFQ cannot isolate — a tenant churning through distinct
//!   topologies evicts every other tenant's warm entries.
//!   [`TenantAccounts`] bounds the *distinct prepared topologies* a tenant
//!   may charge; past the bound, new topologies are refused with the typed
//!   [`Error::QuotaExceeded`] **before** submission, so the flood never
//!   reaches the cache.
//!
//! Everything here is engine-agnostic bookkeeping: no scheduler or cache
//! code knows about tenants, and a single-tenant embedder never pays for
//! any of it.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use bcc_graph::GraphFingerprint;
use serde::{Deserialize, Serialize};

use crate::config::{ConfigError, EngineConfig};
use crate::error::Error;
use crate::wfq::{Priority, RateLimit};

/// The version tag written into [`TenantDirectory::schema`].
pub const TENANT_DIRECTORY_SCHEMA: &str = "bcc-tenants/v1";

/// One tenant's isolation contract: its authenticated name, its WFQ share,
/// and the resource bounds the serving layer enforces on its behalf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantConfig {
    /// The name presented at handshake. Tenant names are exact-match,
    /// case-sensitive identifiers.
    pub name: String,
    /// WFQ weight of the tenant's class (validated ≥ 1).
    pub weight: u32,
    /// Token-bucket rate limit of the tenant's class, if any.
    pub rate_limit: Option<RateLimit>,
    /// Bound on the distinct prepared topologies the tenant may keep warm
    /// in the shared cache; `None` = unmetered.
    pub cache_quota: Option<u64>,
}

impl TenantConfig {
    /// A tenant at the default weight (1) with no rate limit and no cache
    /// quota — the open-enrollment default of `bcc-served`.
    pub fn new(name: impl Into<String>) -> Self {
        TenantConfig {
            name: name.into(),
            weight: 1,
            rate_limit: None,
            cache_quota: None,
        }
    }
}

/// The serializable registry of tenants a serving process accepts, in
/// class-id order: the tenant at index `i` schedules under
/// [`Priority::Custom`]`(i)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantDirectory {
    /// Schema tag consumers dispatch on ([`TENANT_DIRECTORY_SCHEMA`]).
    pub schema: String,
    /// The registered tenants; index is the custom-class id.
    pub tenants: Vec<TenantConfig>,
}

impl Default for TenantDirectory {
    fn default() -> Self {
        TenantDirectory {
            schema: TENANT_DIRECTORY_SCHEMA.to_string(),
            tenants: Vec::new(),
        }
    }
}

impl TenantDirectory {
    /// An empty directory.
    pub fn new() -> Self {
        TenantDirectory::default()
    }

    /// Registers a tenant, returning its scheduling class.
    ///
    /// # Errors
    ///
    /// [`ConfigError::DuplicateTenant`] when the name is taken,
    /// [`ConfigError::TooManyTenants`] past the 256 custom-class ids,
    /// [`ConfigError::ZeroTenantWeight`] on a zero WFQ weight.
    pub fn register(&mut self, tenant: TenantConfig) -> Result<Priority, ConfigError> {
        if self.tenants.iter().any(|t| t.name == tenant.name) {
            return Err(ConfigError::DuplicateTenant { name: tenant.name });
        }
        if self.tenants.len() >= 256 {
            return Err(ConfigError::TooManyTenants {
                count: self.tenants.len() + 1,
            });
        }
        if tenant.weight == 0 {
            return Err(ConfigError::ZeroTenantWeight { name: tenant.name });
        }
        let class = Priority::custom(self.tenants.len() as u8);
        self.tenants.push(tenant);
        Ok(class)
    }

    /// The scheduling class of a registered tenant.
    pub fn class_of(&self, name: &str) -> Option<Priority> {
        self.tenants
            .iter()
            .position(|t| t.name == name)
            .map(|i| Priority::custom(i as u8))
    }

    /// The configuration of a registered tenant.
    pub fn get(&self, name: &str) -> Option<&TenantConfig> {
        self.tenants.iter().find(|t| t.name == name)
    }

    /// Checks the directory's invariants — the same checks
    /// [`TenantDirectory::register`] enforces incrementally, for
    /// directories deserialized from disk.
    ///
    /// # Errors
    ///
    /// See [`TenantDirectory::register`]; additionally
    /// [`ConfigError::UnsupportedSchema`] on a schema-tag mismatch.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.schema != TENANT_DIRECTORY_SCHEMA {
            return Err(ConfigError::UnsupportedSchema {
                found: self.schema.clone(),
            });
        }
        if self.tenants.len() > 256 {
            return Err(ConfigError::TooManyTenants {
                count: self.tenants.len(),
            });
        }
        for (i, tenant) in self.tenants.iter().enumerate() {
            if self.tenants[..i].iter().any(|t| t.name == tenant.name) {
                return Err(ConfigError::DuplicateTenant {
                    name: tenant.name.clone(),
                });
            }
            if tenant.weight == 0 {
                return Err(ConfigError::ZeroTenantWeight {
                    name: tenant.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Writes every tenant's weight and rate limit into `config`'s class
    /// table, so an engine built from the config schedules each tenant
    /// under its contract. Existing entries for the same classes are
    /// overwritten; other classes are untouched.
    pub fn apply(&self, config: &mut EngineConfig) {
        for (i, tenant) in self.tenants.iter().enumerate() {
            let entry = config.class_entry(Priority::custom(i as u8));
            entry.weight = tenant.weight;
            entry.rate_limit = tenant.rate_limit;
        }
    }
}

/// Thread-safe per-tenant cache-quota accounting: which distinct prepared
/// topologies each tenant has charged against its
/// [`TenantConfig::cache_quota`].
///
/// The accounts layer sits **in front of** the shared cache (the daemon
/// charges a tenant before submitting a Laplacian request), so a refused
/// topology never costs a cache slot, an eviction, or a scheduler round.
/// Re-requesting an already-charged topology is always free — the point of
/// the quota is to bound *distinct* topologies, which is what bounds the
/// tenant's worst-case share of cache slots.
#[derive(Debug, Default)]
pub struct TenantAccounts {
    charged: Mutex<HashMap<String, HashSet<GraphFingerprint>>>,
}

impl TenantAccounts {
    /// Empty accounts.
    pub fn new() -> Self {
        TenantAccounts::default()
    }

    /// Charges `fingerprint` against `tenant`'s quota, returning whether
    /// the topology was newly charged (`false` = already charged, free).
    /// An unmetered tenant (no [`TenantConfig::cache_quota`]) is charged
    /// nothing and none of its topologies is recorded.
    ///
    /// # Errors
    ///
    /// [`Error::QuotaExceeded`] when the topology is new and the tenant is
    /// already at its [`TenantConfig::cache_quota`]; nothing is charged.
    pub fn charge(
        &self,
        tenant: &TenantConfig,
        fingerprint: GraphFingerprint,
    ) -> Result<bool, Error> {
        let Some(quota) = tenant.cache_quota else {
            return Ok(false);
        };
        let mut charged = self.charged.lock().expect("tenant accounts poisoned");
        let entries = charged.entry(tenant.name.clone()).or_default();
        if entries.contains(&fingerprint) {
            return Ok(false);
        }
        if entries.len() as u64 >= quota {
            return Err(Error::QuotaExceeded {
                tenant: tenant.name.clone(),
                quota,
            });
        }
        entries.insert(fingerprint);
        Ok(true)
    }

    /// The number of distinct topologies currently charged to `name`.
    pub fn charged(&self, name: &str) -> u64 {
        self.charged
            .lock()
            .expect("tenant accounts poisoned")
            .get(name)
            .map(|s| s.len() as u64)
            .unwrap_or(0)
    }

    /// Releases every charge held by `name` (e.g. when a tenant's cached
    /// topologies have been evicted wholesale), freeing its whole quota.
    pub fn release_all(&self, name: &str) {
        self.charged
            .lock()
            .expect("tenant accounts poisoned")
            .remove(name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bcc_graph::{fingerprint, generators};

    fn directory() -> TenantDirectory {
        let mut dir = TenantDirectory::new();
        dir.register(TenantConfig {
            name: "victim".to_string(),
            weight: 4,
            rate_limit: None,
            cache_quota: Some(2),
        })
        .unwrap();
        dir.register(TenantConfig {
            name: "flooder".to_string(),
            weight: 1,
            rate_limit: Some(RateLimit::new(1, 8)),
            cache_quota: Some(1),
        })
        .unwrap();
        dir
    }

    #[test]
    fn registration_assigns_dense_custom_classes() {
        let dir = directory();
        assert_eq!(dir.class_of("victim"), Some(Priority::custom(0)));
        assert_eq!(dir.class_of("flooder"), Some(Priority::custom(1)));
        assert_eq!(dir.class_of("stranger"), None);
        assert_eq!(dir.get("flooder").unwrap().weight, 1);
        dir.validate().unwrap();
    }

    #[test]
    fn duplicate_and_zero_weight_registrations_fail_typed() {
        let mut dir = directory();
        assert_eq!(
            dir.register(TenantConfig::new("victim")),
            Err(ConfigError::DuplicateTenant {
                name: "victim".to_string()
            })
        );
        let mut zero = TenantConfig::new("zero");
        zero.weight = 0;
        assert_eq!(
            dir.register(zero),
            Err(ConfigError::ZeroTenantWeight {
                name: "zero".to_string()
            })
        );
    }

    #[test]
    fn directory_round_trips_through_json_and_applies_to_a_config() {
        let dir = directory();
        let json = serde_json::to_string_pretty(&dir).unwrap();
        let back: TenantDirectory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, dir);

        let mut config = EngineConfig::default();
        dir.apply(&mut config);
        config.validate().unwrap();
        let victim = config
            .classes
            .iter()
            .find(|e| e.class == Priority::custom(0))
            .unwrap();
        assert_eq!(victim.weight, 4);
        let flooder = config
            .classes
            .iter()
            .find(|e| e.class == Priority::custom(1))
            .unwrap();
        assert_eq!(flooder.rate_limit, Some(RateLimit::new(1, 8)));
    }

    #[test]
    fn quota_charges_distinct_topologies_only() {
        let dir = directory();
        let accounts = TenantAccounts::new();
        let flooder = dir.get("flooder").unwrap();
        let grid = fingerprint(&generators::grid(3, 3));
        let complete = fingerprint(&generators::complete(8));

        // First topology charges; re-charging it is free.
        assert_eq!(accounts.charge(flooder, grid), Ok(true));
        assert_eq!(accounts.charge(flooder, grid), Ok(false));
        assert_eq!(accounts.charged("flooder"), 1);

        // The second distinct topology breaches the quota of 1.
        assert_eq!(
            accounts.charge(flooder, complete),
            Err(Error::QuotaExceeded {
                tenant: "flooder".to_string(),
                quota: 1,
            })
        );

        // Quotas are per-tenant: the victim still has room.
        let victim = dir.get("victim").unwrap();
        assert_eq!(accounts.charge(victim, grid), Ok(true));
        assert_eq!(accounts.charge(victim, complete), Ok(true));

        // Releasing frees the whole quota.
        accounts.release_all("flooder");
        assert_eq!(accounts.charge(flooder, complete), Ok(true));
    }

    #[test]
    fn an_unmetered_tenant_records_no_topologies() {
        let accounts = TenantAccounts::new();
        let open = TenantConfig::new("open");
        let newly_charged = (2..1_002)
            .filter(|&n| accounts.charge(&open, fingerprint(&generators::path(n))) == Ok(true))
            .count();
        assert_eq!(accounts.charged("open"), 0);
        assert_eq!(newly_charged, 0);
    }
}
