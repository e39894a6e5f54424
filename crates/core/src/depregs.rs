//! Dep register sets: `MyProducers`, `MyConsumers` and the WSIG, with the
//! multiple-checkpoint recycling discipline of §4.2.
//!
//! Each core owns a small file of *Dep register sets* (paper: 4 maximum).
//! The active set records the current interval's dependences; when a
//! checkpoint begins, the hardware rotates to a fresh set while the old one
//! keeps absorbing late dependence updates ("the Dep registers for i1
//! cannot be recycled before we can guarantee that i1 will not need to be
//! rolled back"). A set becomes recyclable only once the checkpoint that
//! *follows* its interval completed at least L cycles ago — including
//! delayed writebacks.

use rebound_coherence::CoreSet;
use rebound_engine::{Cycle, LineAddr};

use crate::wsig::Wsig;

/// Lifecycle of one Dep register set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DepSetState {
    /// Unused; available for a new interval.
    Free,
    /// Owned by the interval currently executing.
    Active,
    /// Its interval has initiated a checkpoint whose writebacks have not
    /// finished draining.
    Draining,
    /// The checkpoint closing the interval fully completed at the given
    /// time; recyclable once `at + L <= now`.
    Complete {
        /// Completion time, including delayed writebacks.
        at: Cycle,
    },
}

/// One Dep register set: the paper's `MyProducers`, `MyConsumers` and
/// `WSIG`, plus exact oracle copies used only for false-positive metrics.
#[derive(Clone, Debug)]
pub struct DepSet {
    /// Bit j set ⇔ processor j produced data this interval that we consumed.
    pub my_producers: CoreSet,
    /// Bit j set ⇔ processor j consumed data we produced this interval.
    pub my_consumers: CoreSet,
    /// Bloom signature of lines written (or read exclusively) this interval.
    pub wsig: Wsig,
    /// Oracle producers (dependences recorded without WSIG aliasing).
    pub oracle_producers: CoreSet,
    /// Oracle consumers.
    pub oracle_consumers: CoreSet,
    /// Lifecycle state.
    pub state: DepSetState,
    /// The checkpoint-interval sequence number that owns this set.
    pub interval: u64,
}

impl DepSet {
    fn new(wsig_bits: usize, wsig_hashes: usize) -> DepSet {
        DepSet {
            my_producers: CoreSet::new(),
            my_consumers: CoreSet::new(),
            wsig: Wsig::new(wsig_bits, wsig_hashes),
            oracle_producers: CoreSet::new(),
            oracle_consumers: CoreSet::new(),
            state: DepSetState::Free,
            interval: 0,
        }
    }

    fn reset_for(&mut self, interval: u64) {
        self.my_producers.clear();
        self.my_consumers.clear();
        self.oracle_producers.clear();
        self.oracle_consumers.clear();
        self.wsig.clear();
        self.state = DepSetState::Active;
        self.interval = interval;
    }
}

/// A core's file of Dep register sets.
///
/// # Example
///
/// ```
/// use rebound_core::DepRegFile;
/// use rebound_engine::{Cycle, LineAddr};
///
/// let mut f = DepRegFile::new(4, 1024, 2);
/// f.active_mut().wsig.insert(LineAddr(9));
/// assert_eq!(f.wsig_match_reverse_age(LineAddr(9)), Some(0));
/// assert!(f.rotate(Cycle(100), 1_000).is_some()); // plenty of free sets
/// ```
#[derive(Clone, Debug)]
pub struct DepRegFile {
    sets: Vec<DepSet>,
    active: usize,
    /// Cumulative count of rotation attempts that had to stall (§4.2:
    /// "When a processor ... is out of Dep registers, it stalls").
    pub rotation_stalls: u64,
}

impl DepRegFile {
    /// Creates a file of `nsets` sets (paper: 4), set 0 active for
    /// interval 0.
    ///
    /// # Panics
    ///
    /// Panics if `nsets < 2` — delayed writebacks alone require a
    /// secondary set (§4.1).
    pub fn new(nsets: usize, wsig_bits: usize, wsig_hashes: usize) -> DepRegFile {
        assert!(nsets >= 2, "need at least a primary and secondary Dep set");
        let mut sets: Vec<DepSet> = (0..nsets)
            .map(|_| DepSet::new(wsig_bits, wsig_hashes))
            .collect();
        sets[0].state = DepSetState::Active;
        DepRegFile {
            sets,
            active: 0,
            rotation_stalls: 0,
        }
    }

    /// Number of sets.
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// Whether the file has no sets (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The set recording the current interval.
    pub fn active(&self) -> &DepSet {
        &self.sets[self.active]
    }

    /// Mutable access to the active set.
    pub fn active_mut(&mut self) -> &mut DepSet {
        &mut self.sets[self.active]
    }

    /// All sets, newest interval first, skipping `Free` ones.
    pub fn in_use_newest_first(&self) -> impl Iterator<Item = &DepSet> {
        let mut v: Vec<&DepSet> = self
            .sets
            .iter()
            .filter(|s| s.state != DepSetState::Free)
            .collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.interval));
        v.into_iter()
    }

    /// Reclaims every `Complete` set whose completion is at least
    /// `detect_latency` cycles in the past.
    pub fn reclaim(&mut self, now: Cycle, detect_latency: u64) {
        for s in &mut self.sets {
            if let DepSetState::Complete { at } = s.state {
                if at.saturating_add(detect_latency) <= now {
                    s.state = DepSetState::Free;
                }
            }
        }
    }

    /// Attempts to rotate to a fresh active set for `new_interval`,
    /// reclaiming aged-out sets first. The old active set moves to
    /// `Draining`. Returns the index of the *old* set on success, or `None`
    /// if every other set is still pinned (the caller must stall — this is
    /// the out-of-Dep-registers stall of §4.2).
    pub fn rotate(&mut self, now: Cycle, detect_latency: u64) -> Option<usize> {
        self.reclaim(now, detect_latency);
        let free = self.sets.iter().position(|s| s.state == DepSetState::Free);
        let Some(free) = free else {
            self.rotation_stalls += 1;
            return None;
        };
        let old = self.active;
        let new_interval = self.sets[old].interval + 1;
        self.sets[old].state = DepSetState::Draining;
        self.sets[free].reset_for(new_interval);
        self.active = free;
        Some(old)
    }

    /// Marks the `Draining` set of `interval` as complete at `at` (its
    /// checkpoint's writebacks — delayed or stalled — have all drained and
    /// the stub is in the log).
    ///
    /// # Panics
    ///
    /// Panics if no draining set owns `interval`.
    pub fn complete(&mut self, interval: u64, at: Cycle) {
        let s = self
            .sets
            .iter_mut()
            .find(|s| s.state == DepSetState::Draining && s.interval == interval)
            .expect("completing an interval that is not draining");
        s.state = DepSetState::Complete { at };
    }

    /// WSIG membership by reverse age (§4.2, first event): checks the
    /// newest interval first and returns the index into the file of the
    /// first set whose signature matches, if any.
    pub fn wsig_match_reverse_age(&self, addr: LineAddr) -> Option<usize> {
        let mut order: Vec<usize> = (0..self.sets.len())
            .filter(|&i| self.sets[i].state != DepSetState::Free)
            .collect();
        order.sort_by(|&a, &b| self.sets[b].interval.cmp(&self.sets[a].interval));
        order
            .into_iter()
            .find(|&i| self.sets[i].wsig.contains(addr))
    }

    /// Exact-oracle version of [`Self::wsig_match_reverse_age`] (metrics
    /// only; no false positives possible).
    pub fn exact_match_reverse_age(&self, addr: LineAddr) -> Option<usize> {
        let mut order: Vec<usize> = (0..self.sets.len())
            .filter(|&i| self.sets[i].state != DepSetState::Free)
            .collect();
        order.sort_by(|&a, &b| self.sets[b].interval.cmp(&self.sets[a].interval));
        order
            .into_iter()
            .find(|&i| self.sets[i].wsig.exact_contains(addr))
    }

    /// Direct access to set `i`.
    pub fn set(&self, i: usize) -> &DepSet {
        &self.sets[i]
    }

    /// Mutable access to set `i`.
    pub fn set_mut(&mut self, i: usize) -> &mut DepSet {
        &mut self.sets[i]
    }

    /// The union of `MyConsumers` over every in-use set whose interval is
    /// `>= from_interval` — the consumer set to notify when rolling back to
    /// the checkpoint that closed `from_interval - 1` (§4.2, second event).
    pub fn consumers_since(&self, from_interval: u64) -> CoreSet {
        self.sets
            .iter()
            .filter(|s| s.state != DepSetState::Free && s.interval >= from_interval)
            .fold(CoreSet::new(), |acc, s| acc.union(s.my_consumers))
    }

    /// Union of producers over the same range (used to widen rollback when
    /// producers must also be notified of aborted checkpoints).
    pub fn producers_since(&self, from_interval: u64) -> CoreSet {
        self.sets
            .iter()
            .filter(|s| s.state != DepSetState::Free && s.interval >= from_interval)
            .fold(CoreSet::new(), |acc, s| acc.union(s.my_producers))
    }

    /// Rollback reset (§3.3.5): clears *every* set and restarts the file
    /// with a single active set for `interval`.
    pub fn reset_all(&mut self, interval: u64) {
        for s in &mut self.sets {
            s.my_producers.clear();
            s.my_consumers.clear();
            s.oracle_producers.clear();
            s.oracle_consumers.clear();
            s.wsig.clear();
            s.state = DepSetState::Free;
            s.interval = 0;
        }
        self.active = 0;
        self.sets[0].state = DepSetState::Active;
        self.sets[0].interval = interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebound_engine::CoreId;

    fn file() -> DepRegFile {
        DepRegFile::new(4, 256, 2)
    }

    #[test]
    fn starts_with_one_active_set() {
        let f = file();
        assert_eq!(f.len(), 4);
        assert_eq!(f.active().state, DepSetState::Active);
        assert_eq!(f.active().interval, 0);
    }

    #[test]
    #[should_panic(expected = "at least a primary and secondary")]
    fn one_set_is_not_enough() {
        DepRegFile::new(1, 64, 1);
    }

    #[test]
    fn rotation_moves_active_and_drains_old() {
        let mut f = file();
        f.active_mut().my_consumers.insert(CoreId(3));
        let old = f.rotate(Cycle(10), 1_000).expect("sets available");
        assert_eq!(f.set(old).state, DepSetState::Draining);
        assert!(f.set(old).my_consumers.contains(CoreId(3)));
        assert_eq!(f.active().interval, 1);
        assert!(f.active().my_consumers.is_empty());
        assert!(f.active().wsig.is_empty());
    }

    #[test]
    fn exhaustion_stalls_until_reclaim() {
        let mut f = file();
        // Rotate 3 times: sets for intervals 0,1,2 draining, 3 active.
        for _ in 0..3 {
            assert!(f.rotate(Cycle(0), 1_000).is_some());
        }
        // Out of sets now.
        assert!(f.rotate(Cycle(0), 1_000).is_none());
        assert_eq!(f.rotation_stalls, 1);
        // Complete interval 0's checkpoint at t=100; with L=1000 it is
        // recyclable from t=1100.
        f.complete(0, Cycle(100));
        assert!(f.rotate(Cycle(500), 1_000).is_none(), "not aged yet");
        assert!(f.rotate(Cycle(1_100), 1_000).is_some(), "aged out");
        assert_eq!(f.active().interval, 4);
    }

    #[test]
    #[should_panic(expected = "not draining")]
    fn completing_unknown_interval_panics() {
        let mut f = file();
        f.complete(7, Cycle(1));
    }

    #[test]
    fn wsig_reverse_age_prefers_newest() {
        let mut f = file();
        f.active_mut().wsig.insert(LineAddr(9)); // interval 0
        f.rotate(Cycle(0), 1_000).unwrap();
        f.active_mut().wsig.insert(LineAddr(9)); // interval 1 too
        let idx = f.wsig_match_reverse_age(LineAddr(9)).expect("match");
        assert_eq!(
            f.set(idx).interval,
            1,
            "both intervals wrote the line; the later one must win (§4.1)"
        );
    }

    #[test]
    fn wsig_match_falls_back_to_older_interval() {
        let mut f = file();
        f.active_mut().wsig.insert(LineAddr(5)); // interval 0
        f.rotate(Cycle(0), 1_000).unwrap();
        let idx = f.wsig_match_reverse_age(LineAddr(5)).expect("match");
        assert_eq!(f.set(idx).interval, 0);
        assert_eq!(f.wsig_match_reverse_age(LineAddr(77)), None);
    }

    #[test]
    fn consumers_since_unions_intervals() {
        let mut f = file();
        f.active_mut().my_consumers.insert(CoreId(1)); // interval 0
        f.rotate(Cycle(0), 1_000).unwrap();
        f.active_mut().my_consumers.insert(CoreId(2)); // interval 1
        f.rotate(Cycle(0), 1_000).unwrap();
        f.active_mut().my_consumers.insert(CoreId(3)); // interval 2
        let since1 = f.consumers_since(1);
        assert!(!since1.contains(CoreId(1)));
        assert!(since1.contains(CoreId(2)) && since1.contains(CoreId(3)));
        let since0 = f.consumers_since(0);
        assert_eq!(since0.len(), 3);
    }

    #[test]
    fn reset_all_clears_everything() {
        let mut f = file();
        f.active_mut().my_producers.insert(CoreId(9));
        f.active_mut().wsig.insert(LineAddr(1));
        f.rotate(Cycle(0), 1_000).unwrap();
        f.reset_all(7);
        assert_eq!(f.active().interval, 7);
        assert!(f.active().my_producers.is_empty());
        assert_eq!(f.wsig_match_reverse_age(LineAddr(1)), None);
        assert_eq!(
            f.in_use_newest_first().count(),
            1,
            "only the fresh active set remains in use"
        );
    }

    #[test]
    fn in_use_newest_first_orders_by_interval() {
        let mut f = file();
        f.rotate(Cycle(0), 1_000).unwrap();
        f.rotate(Cycle(0), 1_000).unwrap();
        let intervals: Vec<u64> = f.in_use_newest_first().map(|s| s.interval).collect();
        assert_eq!(intervals, vec![2, 1, 0]);
    }

    #[test]
    fn exact_match_never_false_positives() {
        let mut f = DepRegFile::new(2, 8, 4); // tiny, alias-prone bloom
        for i in 0..64 {
            f.active_mut().wsig.insert(LineAddr(i));
        }
        assert_eq!(f.exact_match_reverse_age(LineAddr(999)), None);
        assert!(f.exact_match_reverse_age(LineAddr(5)).is_some());
    }
}
