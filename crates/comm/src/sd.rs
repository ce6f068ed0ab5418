//! Service discovery.
//!
//! The discovery half of a SOME/IP-style middleware: providers *offer*
//! service instances with a time-to-live, consumers *find* them and
//! *subscribe* to event groups. The [`ServiceDirectory`] is the (per-node
//! or central) state machine; dynamic (re)binding at runtime is exactly
//! what the AUTOSAR Adaptive RTE of §5.2 promises.

use dynplat_common::ids::ServiceInstance;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppId, EcuId, EventGroupId, ServiceId};
use std::collections::BTreeMap;

/// A discovery protocol entry (the SD message payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SdEntry {
    /// A provider announces a service instance.
    Offer {
        /// The offered instance.
        instance: ServiceInstance,
        /// Hosting ECU.
        host: EcuId,
        /// Interface major version.
        version: u8,
        /// Validity duration.
        ttl: SimDuration,
    },
    /// A provider withdraws an offer (TTL 0 in SOME/IP-SD).
    StopOffer {
        /// The withdrawn instance.
        instance: ServiceInstance,
    },
    /// A consumer looks for a service.
    Find {
        /// Wanted service type.
        service: ServiceId,
    },
    /// A consumer subscribes to an event group.
    Subscribe {
        /// Target instance.
        instance: ServiceInstance,
        /// Event group within the service.
        group: EventGroupId,
        /// Subscribing application.
        subscriber: AppId,
        /// ECU the subscriber runs on (delivery target).
        host: EcuId,
        /// Subscription TTL.
        ttl: SimDuration,
    },
    /// A consumer cancels a subscription.
    Unsubscribe {
        /// Target instance.
        instance: ServiceInstance,
        /// Event group.
        group: EventGroupId,
        /// Subscriber.
        subscriber: AppId,
    },
}

/// A live offer in the directory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OfferState {
    /// The offered instance.
    pub instance: ServiceInstance,
    /// Hosting ECU.
    pub host: EcuId,
    /// Interface major version.
    pub version: u8,
    /// When the offer lapses unless renewed.
    pub expires: SimTime,
}

/// A live subscription.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscriptionState {
    /// Subscribing application.
    pub subscriber: AppId,
    /// ECU the subscriber runs on.
    pub host: EcuId,
    /// When the subscription lapses unless renewed.
    pub expires: SimTime,
}

/// The discovery state machine.
#[derive(Clone, Debug, Default)]
pub struct ServiceDirectory {
    offers: BTreeMap<ServiceInstance, OfferState>,
    subs: BTreeMap<(ServiceInstance, EventGroupId), Vec<SubscriptionState>>,
}

impl ServiceDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        ServiceDirectory::default()
    }

    /// Applies one SD entry at time `now`.
    pub fn apply(&mut self, now: SimTime, entry: &SdEntry) {
        match entry {
            SdEntry::Offer {
                instance,
                host,
                version,
                ttl,
            } => {
                self.offers.insert(
                    *instance,
                    OfferState {
                        instance: *instance,
                        host: *host,
                        version: *version,
                        expires: now + *ttl,
                    },
                );
            }
            SdEntry::StopOffer { instance } => {
                self.offers.remove(instance);
                self.subs.retain(|(inst, _), _| inst != instance);
            }
            SdEntry::Find { .. } => {} // responses are generated by `find`
            SdEntry::Subscribe {
                instance,
                group,
                subscriber,
                host,
                ttl,
            } => {
                let list = self.subs.entry((*instance, *group)).or_default();
                let state = SubscriptionState {
                    subscriber: *subscriber,
                    host: *host,
                    expires: now + *ttl,
                };
                match list.iter_mut().find(|s| s.subscriber == *subscriber) {
                    Some(existing) => *existing = state,
                    None => list.push(state),
                }
            }
            SdEntry::Unsubscribe {
                instance,
                group,
                subscriber,
            } => {
                if let Some(list) = self.subs.get_mut(&(*instance, *group)) {
                    list.retain(|s| s.subscriber != *subscriber);
                }
            }
        }
    }

    /// Drops lapsed offers and subscriptions; returns how many lapsed.
    ///
    /// An offer that lapses takes its event-group subscriptions with it,
    /// exactly as an explicit [`SdEntry::StopOffer`] would — otherwise
    /// subscriber entries for dead providers accumulate forever and event
    /// fan-out keeps addressing hosts that no longer serve the instance.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let lapsed: Vec<ServiceInstance> = self
            .offers
            .values()
            .filter(|o| o.expires <= now)
            .map(|o| o.instance)
            .collect();
        let mut expired_subs = 0;
        for instance in &lapsed {
            self.offers.remove(instance);
            let purged: Vec<_> = self
                .subs
                .keys()
                .filter(|(inst, _)| inst == instance)
                .copied()
                .collect();
            for key in purged {
                expired_subs += self.subs.remove(&key).map_or(0, |list| list.len());
            }
        }
        for list in self.subs.values_mut() {
            let before = list.len();
            list.retain(|s| s.expires > now);
            expired_subs += before - list.len();
        }
        lapsed.len() + expired_subs
    }

    /// Finds a live replacement offer for `instance` after its provider
    /// went away: another live instance of the same service, preferring
    /// the lowest instance number (deterministic failover target).
    ///
    /// Returns `None` if the original offer is in fact still live (no
    /// rebinding needed) or no alternative exists.
    pub fn rebind(&self, now: SimTime, instance: ServiceInstance) -> Option<&OfferState> {
        if self.offer(now, instance).is_some() {
            return None;
        }
        self.offers
            .values()
            .find(|o| o.instance.service == instance.service && o.expires > now)
    }

    /// All live offers of `service` at `now` (a Find response).
    pub fn find(&self, now: SimTime, service: ServiceId) -> Vec<&OfferState> {
        self.offers
            .values()
            .filter(|o| o.instance.service == service && o.expires > now)
            .collect()
    }

    /// A specific live offer.
    pub fn offer(&self, now: SimTime, instance: ServiceInstance) -> Option<&OfferState> {
        self.offers.get(&instance).filter(|o| o.expires > now)
    }

    /// Visits the live subscribers of an event group at `now` without
    /// allocating (the fanout hot path's lookup).
    pub fn for_each_subscriber<F>(
        &self,
        now: SimTime,
        instance: ServiceInstance,
        group: EventGroupId,
        mut f: F,
    ) where
        F: FnMut(&SubscriptionState),
    {
        if let Some(list) = self.subs.get(&(instance, group)) {
            for sub in list.iter().filter(|s| s.expires > now) {
                f(sub);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(svc: u16, i: u16) -> ServiceInstance {
        ServiceInstance::new(ServiceId(svc), i)
    }

    fn s(v: u64) -> SimDuration {
        SimDuration::from_secs(v)
    }

    /// The live subscribers `for_each_subscriber` visits, in visit order.
    fn live(
        dir: &ServiceDirectory,
        now: SimTime,
        instance: ServiceInstance,
        group: EventGroupId,
    ) -> Vec<SubscriptionState> {
        let mut subs = Vec::new();
        dir.for_each_subscriber(now, instance, group, |sub| subs.push(sub.clone()));
        subs
    }

    #[test]
    fn offer_find_lifecycle() {
        let mut dir = ServiceDirectory::new();
        let t0 = SimTime::ZERO;
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(3),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 1),
                host: EcuId(3),
                version: 1,
                ttl: s(3),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(2, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(3),
            },
        );

        let found = dir.find(t0 + s(1), ServiceId(1));
        assert_eq!(found.len(), 2);
        assert!(dir.offer(t0 + s(1), inst(2, 0)).is_some());
        // After TTL, offers are gone from find even before expire() runs.
        assert!(dir.find(t0 + s(4), ServiceId(1)).is_empty());
        assert_eq!(dir.expire(t0 + s(4)), 3);
        // expire() removed them: a lookup at a time still inside the TTL
        // finds nothing.
        assert!(dir.find(t0 + s(1), ServiceId(1)).is_empty());
        assert!(dir.offer(t0 + s(1), inst(2, 0)).is_none());
    }

    #[test]
    fn stop_offer_removes_offer_and_subscriptions() {
        let mut dir = ServiceDirectory::new();
        let t0 = SimTime::ZERO;
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(10),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Subscribe {
                instance: inst(1, 0),
                group: EventGroupId(1),
                subscriber: AppId(5),
                host: EcuId(7),
                ttl: s(10),
            },
        );
        assert_eq!(live(&dir, t0, inst(1, 0), EventGroupId(1)).len(), 1);
        dir.apply(
            t0,
            &SdEntry::StopOffer {
                instance: inst(1, 0),
            },
        );
        assert!(dir.offer(t0, inst(1, 0)).is_none());
        assert!(live(&dir, t0, inst(1, 0), EventGroupId(1)).is_empty());
    }

    #[test]
    fn subscription_renewal_extends_not_duplicates() {
        let mut dir = ServiceDirectory::new();
        let sub = |ttl| SdEntry::Subscribe {
            instance: inst(1, 0),
            group: EventGroupId(1),
            subscriber: AppId(5),
            host: EcuId(7),
            ttl,
        };
        dir.apply(SimTime::ZERO, &sub(s(2)));
        dir.apply(SimTime::from_secs(1), &sub(s(5)));
        let subs = live(&dir, SimTime::from_secs(3), inst(1, 0), EventGroupId(1));
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].expires, SimTime::from_secs(6));
    }

    #[test]
    fn unsubscribe_removes_only_that_subscriber() {
        let mut dir = ServiceDirectory::new();
        for app in [5u32, 6] {
            dir.apply(
                SimTime::ZERO,
                &SdEntry::Subscribe {
                    instance: inst(1, 0),
                    group: EventGroupId(1),
                    subscriber: AppId(app),
                    host: EcuId(7),
                    ttl: s(10),
                },
            );
        }
        dir.apply(
            SimTime::ZERO,
            &SdEntry::Unsubscribe {
                instance: inst(1, 0),
                group: EventGroupId(1),
                subscriber: AppId(5),
            },
        );
        let subs = live(&dir, SimTime::ZERO, inst(1, 0), EventGroupId(1));
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].subscriber, AppId(6));
    }

    #[test]
    fn expired_offer_purges_its_subscriptions() {
        // Regression: a lapsed offer must take its SubscriptionState
        // entries with it, exactly like StopOffer does. Previously the
        // subscriber list survived with its own (longer) TTL.
        let mut dir = ServiceDirectory::new();
        let t0 = SimTime::ZERO;
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(2),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Subscribe {
                instance: inst(1, 0),
                group: EventGroupId(1),
                subscriber: AppId(5),
                host: EcuId(7),
                ttl: s(60), // far outlives the offer
            },
        );
        // Offer (1) + its subscription (1) lapse together.
        assert_eq!(dir.expire(t0 + s(3)), 2);
        assert!(live(&dir, t0 + s(3), inst(1, 0), EventGroupId(1)).is_empty());
        // Even by raw map inspection nothing is retained for the instance.
        assert_eq!(dir.subs.len(), 0);
    }

    #[test]
    fn expired_offer_leaves_other_instances_subscriptions_alone() {
        let mut dir = ServiceDirectory::new();
        let t0 = SimTime::ZERO;
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(2),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 1),
                host: EcuId(3),
                version: 1,
                ttl: s(60),
            },
        );
        for i in [0u16, 1] {
            dir.apply(
                t0,
                &SdEntry::Subscribe {
                    instance: inst(1, i),
                    group: EventGroupId(1),
                    subscriber: AppId(5),
                    host: EcuId(7),
                    ttl: s(60),
                },
            );
        }
        assert_eq!(dir.expire(t0 + s(3)), 2); // offer 1.0 + its sub
        assert_eq!(live(&dir, t0 + s(3), inst(1, 1), EventGroupId(1)).len(), 1);
    }

    #[test]
    fn rebind_prefers_lowest_live_alternate() {
        let mut dir = ServiceDirectory::new();
        let t0 = SimTime::ZERO;
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 0),
                host: EcuId(2),
                version: 1,
                ttl: s(2),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 1),
                host: EcuId(3),
                version: 1,
                ttl: s(60),
            },
        );
        dir.apply(
            t0,
            &SdEntry::Offer {
                instance: inst(1, 2),
                host: EcuId(4),
                version: 1,
                ttl: s(60),
            },
        );
        // Original offer still live: no rebinding.
        assert!(dir.rebind(t0 + s(1), inst(1, 0)).is_none());
        // After its TTL the lowest live alternate is chosen.
        let alt = dir.rebind(t0 + s(3), inst(1, 0)).expect("alternate exists");
        assert_eq!(alt.instance, inst(1, 1));
        assert_eq!(alt.host, EcuId(3));
        // No alternates at all -> None.
        assert!(dir
            .rebind(t0 + s(3), ServiceInstance::new(ServiceId(9), 0))
            .is_none());
    }

    #[test]
    fn expired_subscriptions_stop_receiving() {
        let mut dir = ServiceDirectory::new();
        dir.apply(
            SimTime::ZERO,
            &SdEntry::Subscribe {
                instance: inst(1, 0),
                group: EventGroupId(1),
                subscriber: AppId(5),
                host: EcuId(7),
                ttl: s(2),
            },
        );
        assert_eq!(
            live(&dir, SimTime::from_secs(1), inst(1, 0), EventGroupId(1)).len(),
            1
        );
        assert!(live(&dir, SimTime::from_secs(3), inst(1, 0), EventGroupId(1)).is_empty());
    }
}
