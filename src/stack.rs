//! The one place a stack is assembled.
//!
//! Every mount in this workspace composes the same tiers in the same order —
//! member backends, then (each optional) router ⇄ circuit breakers, retries,
//! block cache, and a shim on top — and differs only in which tiers are
//! present. [`StackBuilder`] is that order, written once: it creates the
//! mount's single [`Profiler`] first and hands it (and the health gate) to
//! each tier *at construction*, so no tier can be left dark and nothing is
//! looked up per I/O that was decided at mount time.
//!
//! Retries sit *below* the cache so a retried or hedged attempt hits the
//! transport rather than the cache's fast path, and *above* the router so
//! one retry covers whichever replica the router picks.
//!
//! The returned [`Stack`] owns typed handles to every tier present plus the
//! two duties a hand-rolled assembler forgets: [`Stack::maintain`] (run the
//! targeted scrubs that reclosed breakers queued) and [`Stack::finish`]
//! (flush a write-back cache).
//!
//! ```
//! use lamassu::cache::CacheConfig;
//! use lamassu::core::{FileSystem, PlainFs};
//! use lamassu::dist::DistConfig;
//! use lamassu::stack::{Resilience, StackBuilder};
//! use lamassu::storage::{DedupStore, StorageProfile};
//! use std::sync::Arc;
//!
//! let members = (0..3)
//!     .map(|_| Arc::new(DedupStore::new(4096, StorageProfile::instant())))
//!     .collect();
//! let stack = StackBuilder::new(members)
//!     .dist(DistConfig::new(2))
//!     .resilience(Resilience::default())
//!     .cache(CacheConfig::write_back(64))
//!     .mount(|store, profiler| PlainFs::with_profiler(store, profiler));
//! let fd = stack.fs.create("/f").unwrap();
//! stack.fs.write(fd, 0, b"tiered").unwrap();
//! stack.fs.fsync(fd).unwrap();
//! assert!(stack.maintain().is_empty()); // no breaker reclosed
//! stack.finish().unwrap();
//! ```

use crate::cache::{CacheConfig, CachedStore};
use crate::core::Profiler;
use crate::dist::{DistConfig, RoutedStore, ScrubReport};
use crate::resilience::{
    BreakerConfig, BreakerSet, HedgeConfig, OpBudget, ResilientStore, RetryPolicy,
};
use crate::storage::ObjectStore;
use std::sync::Arc;

/// What the self-healing tier of a stack consists of.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Resilience {
    /// Backoff schedule of the retry wrapper.
    pub retry: RetryPolicy,
    /// Attempt and deadline budget per logical operation.
    pub budget: OpBudget,
    /// Hedged reads, when set.
    pub hedge: Option<HedgeConfig>,
    /// Per-member circuit breakers gating the router, when set. Ignored on a
    /// stack without a router (there is nobody to fail over to).
    pub breakers: Option<BreakerConfig>,
}

/// Assembles a [`Stack`] bottom-up in the one fixed tier order (see the
/// [module docs](self)).
pub struct StackBuilder<S: ObjectStore + 'static> {
    members: Vec<Arc<S>>,
    dist: Option<DistConfig>,
    resilience: Option<Resilience>,
    cache: Option<CacheConfig>,
}

impl<S: ObjectStore + 'static> StackBuilder<S> {
    /// Starts a stack over the given member backends: exactly one unless
    /// [`StackBuilder::dist`] spreads the volume over them.
    pub fn new(members: Vec<Arc<S>>) -> Self {
        StackBuilder {
            members,
            dist: None,
            resilience: None,
            cache: None,
        }
    }

    /// Routes the volume over the members with this placement.
    pub fn dist(mut self, config: impl Into<Option<DistConfig>>) -> Self {
        self.dist = config.into();
        self
    }

    /// Wraps the volume (or the router) in the self-healing tier.
    pub fn resilience(mut self, spec: impl Into<Option<Resilience>>) -> Self {
        self.resilience = spec.into();
        self
    }

    /// Puts a block cache directly under the shim.
    pub fn cache(mut self, config: impl Into<Option<CacheConfig>>) -> Self {
        self.cache = config.into();
        self
    }

    /// Builds the store tiers only (for callers that drive the top store
    /// directly).
    pub fn build(self) -> Stack<(), S> {
        self.mount(|_, _| ())
    }

    /// Builds every configured tier, then mounts `shim` over the top store
    /// with the profiler the tiers below it already charge.
    pub fn mount<F>(
        self,
        shim: impl FnOnce(Arc<dyn ObjectStore>, Arc<Profiler>) -> F,
    ) -> Stack<F, S> {
        let profiler = Profiler::new();
        let mut breakers = None;
        let (mut store, router): (Arc<dyn ObjectStore>, _) = match self.dist {
            None => {
                assert_eq!(self.members.len(), 1, "an unrouted stack has one backend");
                (self.members[0].clone(), None)
            }
            Some(config) => {
                let mut router =
                    RoutedStore::new(self.members.clone(), config).with_profiler(profiler.clone());
                if let Some(config) = self.resilience.and_then(|r| r.breakers) {
                    let set = Arc::new(BreakerSet::new(config));
                    router = router.with_health_gate(set.clone());
                    breakers = Some(set);
                }
                let router = Arc::new(router);
                (router.clone(), Some(router))
            }
        };
        let resilient = self.resilience.map(|spec| {
            let mut tier = ResilientStore::new(store.clone(), spec.retry, spec.budget);
            if let Some(hedge) = spec.hedge {
                tier = tier.with_hedging(hedge);
            }
            let tier = Arc::new(tier);
            store = tier.clone();
            tier
        });
        let cache = self.cache.map(|config| {
            let tier =
                Arc::new(CachedStore::new(store.clone(), config).with_profiler(profiler.clone()));
            store = tier.clone();
            tier
        });
        Stack {
            fs: shim(store.clone(), profiler.clone()),
            profiler,
            store,
            members: self.members,
            router,
            breakers,
            resilient,
            cache,
        }
    }
}

/// A built stack: the mounted shim (`()` for [`StackBuilder::build`]) and a
/// handle on every tier present.
pub struct Stack<F, S: ObjectStore + 'static> {
    /// What [`StackBuilder::mount`]'s closure returned.
    pub fs: F,
    /// The mount's one profiler: the shim, the cache and the router all
    /// charge it.
    pub profiler: Arc<Profiler>,
    /// The store the shim sits on (the topmost tier present) — where a
    /// workload driver reads I/O accounting.
    pub store: Arc<dyn ObjectStore>,
    /// The member backends, in stable-id order.
    pub members: Vec<Arc<S>>,
    /// The routing tier, on a distributed stack.
    pub router: Option<Arc<RoutedStore<S>>>,
    /// The router's per-member circuit breakers.
    pub breakers: Option<Arc<BreakerSet>>,
    /// The retry/hedge tier.
    pub resilient: Option<Arc<ResilientStore>>,
    /// The block cache.
    pub cache: Option<Arc<CachedStore>>,
}

impl<F, S: ObjectStore + 'static> Stack<F, S> {
    /// Runs the targeted scrub of every member whose breaker reclosed since
    /// the last call and returns what ran, by member id. Until it runs, a
    /// healed member serves the (detectably) stale units it missed while it
    /// was gated out — call it between workload rounds and before reporting.
    pub fn maintain(&self) -> Vec<(u32, ScrubReport)> {
        let Some(router) = &self.router else {
            return Vec::new();
        };
        router
            .take_probe_scrub_requests()
            .into_iter()
            .map(|id| (id, router.scrub_member(id)))
            .collect()
    }

    /// Flushes a write-back cache down to the tiers below it. Call before
    /// dropping a stack whose backends outlive it.
    pub fn finish(&self) -> crate::storage::Result<()> {
        self.cache
            .as_ref()
            .map_or(Ok(()), |cache| cache.flush_all())
    }
}
