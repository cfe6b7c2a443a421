//! The wedge lease (§6.4.1's quiescence for state transfer).
//!
//! A joining member's activation wedges the survivors so no state change
//! lands between their snapshot and the membership change. A crashed
//! reconfiguration must not leave the troupe refusing work forever, so
//! the wedge is a lease: it lapses [`WEDGE_TTL`] after it was taken,
//! checked lazily whenever the service next looks at it. The commit
//! store, the ordered-broadcast module and the commutative-operations
//! module all hold one.

use simnet::{Duration, Time};

/// How long a wedge holds without being released. Generous against a
/// healthy transfer: wedge + get_state + add_troupe_member + unwedge
/// completes in well under a second of simulated time on a quiet
/// troupe.
const WEDGE_TTL: Duration = Duration::from_micros(12_000_000);

/// A wedge lease: taken by `wedge`, released by `unwedge` or lapsed by
/// the TTL. Transient — never part of a service's transferred state.
#[derive(Debug, Default)]
pub(crate) struct WedgeLease {
    since: Option<Time>,
}

impl WedgeLease {
    /// Whether the lease is held at `now`; an expired lease lapses here.
    pub(crate) fn held(&mut self, now: Time) -> bool {
        if self.since.is_some_and(|at| now.since(at) > WEDGE_TTL) {
            self.since = None;
        }
        self.since.is_some()
    }

    /// Takes the lease at `now` unless it is already held (a held lease
    /// is not renewed). Returns `true` if this call took it.
    pub(crate) fn take(&mut self, now: Time) -> bool {
        if self.held(now) {
            return false;
        }
        self.since = Some(now);
        true
    }

    /// Releases the lease (`unwedge`).
    pub(crate) fn release(&mut self) {
        self.since = None;
    }

    /// Whether the lease is held, without applying the TTL.
    pub(crate) fn is_held(&self) -> bool {
        self.since.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_holds_through_the_ttl_and_lapses_after() {
        let t0 = Time::from_micros(5_000_000);
        let mut lease = WedgeLease::default();
        assert!(!lease.held(t0));
        assert!(lease.take(t0));
        assert!(!lease.take(t0 + WEDGE_TTL), "a held lease is not renewed");
        assert!(lease.held(t0 + WEDGE_TTL), "the TTL bound is inclusive");
        assert!(!lease.held(t0 + WEDGE_TTL + Duration::from_micros(1)));
        assert!(!lease.is_held());
        assert!(lease.take(t0 + WEDGE_TTL + Duration::from_micros(2)));
        lease.release();
        assert!(!lease.is_held());
    }
}
