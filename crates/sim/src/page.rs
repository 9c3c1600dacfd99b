//! NUMA pages: home-node assignment, placement policies, capacity spill and
//! dynamic migration.
//!
//! Every simulated address belongs to a page whose *home node* holds its
//! directory entry and memory copy. Homes are assigned by explicit placement
//! (the paper's "manual" distribution), by first-touch, or round-robin
//! (§6.2, Table 3). Nodes have finite memory: first-touch and explicit
//! placement spill to the least-loaded node when the preferred node is full,
//! which reproduces the paper's Ocean superlinearity observation (a problem
//! too big for one node's memory makes the *sequential* run pay remote
//! latency).

use crate::config::{MigrationConfig, PagePlacement};
use crate::dense::DenseTable;

/// A simulated byte address.
pub type Addr = u64;

/// Result of recording a miss against a page for the migration policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationEvent {
    /// The page stayed where it was.
    None,
    /// The page migrated from `.0` to `.1`.
    Migrated(usize, usize),
}

#[derive(Debug)]
struct PageInfo {
    home: usize,
    /// Per-node miss counters, allocated lazily when migration is on.
    counters: Option<Box<[u32]>>,
    since_migrate: u32,
}

/// The machine's page table: page → home node.
#[derive(Debug)]
pub struct PageTable {
    page_shift: u32,
    n_nodes: usize,
    placement: PagePlacement,
    migration: Option<MigrationConfig>,
    /// Page → its placement; `None` until the page is homed.
    pages: DenseTable<Option<PageInfo>>,
    /// Pages resident per node (for capacity spill).
    used: Vec<u64>,
    capacity_pages: u64,
    rr_next: usize,
    migrations: u64,
}

impl PageTable {
    /// Creates a page table for `n_nodes` nodes with `page_bytes` pages and
    /// `mem_per_node_bytes` of memory per node.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two or `n_nodes` is zero.
    pub fn new(
        page_bytes: usize,
        n_nodes: usize,
        mem_per_node_bytes: usize,
        placement: PagePlacement,
        migration: Option<MigrationConfig>,
    ) -> Self {
        assert!(page_bytes.is_power_of_two() && n_nodes > 0);
        PageTable {
            page_shift: page_bytes.trailing_zeros(),
            n_nodes,
            placement,
            migration,
            pages: DenseTable::default(),
            used: vec![0; n_nodes],
            capacity_pages: (mem_per_node_bytes / page_bytes) as u64,
            rr_next: 0,
            migrations: 0,
        }
    }

    /// The page index containing `addr`.
    #[inline]
    pub fn page_of(&self, addr: Addr) -> u64 {
        addr >> self.page_shift
    }

    /// Total pages migrated so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Number of pages currently homed on each node.
    pub fn pages_per_node(&self) -> &[u64] {
        &self.used
    }

    fn spill_target(&self, preferred: usize) -> usize {
        if self.used[preferred] < self.capacity_pages {
            return preferred;
        }
        // Preferred node is full: pick the least-loaded node.
        (0..self.n_nodes)
            .min_by_key(|&n| (self.used[n], n))
            .expect("at least one node")
    }

    fn install(&mut self, page: u64, preferred: usize) -> usize {
        let home = self.spill_target(preferred);
        self.used[home] += 1;
        let counters = self
            .migration
            .map(|_| vec![0u32; self.n_nodes].into_boxed_slice());
        *self.pages.get_mut(page) = Some(PageInfo {
            home,
            counters,
            since_migrate: 0,
        });
        home
    }

    /// Explicitly places every page overlapping `[base, base + len)` on
    /// `node` (subject to capacity spill). Pages already placed are moved
    /// without cost — explicit placement happens before the run.
    pub fn place_range(&mut self, base: Addr, len: u64, node: usize) {
        assert!(
            node < self.n_nodes,
            "placement target node {node} out of range"
        );
        if len == 0 {
            return;
        }
        let first = self.page_of(base);
        let last = self.page_of(base + len - 1);
        for page in first..=last {
            if let Some(info) = self.pages.get_mut(page).take() {
                self.used[info.home] -= 1;
            }
            self.install(page, node);
        }
    }

    /// Returns the home node of `addr`, assigning one according to the
    /// placement policy if this is the first touch. `toucher_node` is the
    /// node of the requesting processor.
    pub fn home_of(&mut self, addr: Addr, toucher_node: usize) -> usize {
        let page = self.page_of(addr);
        if let Some(Some(info)) = self.pages.get(page) {
            return info.home;
        }
        let preferred = match self.placement {
            PagePlacement::FirstTouch => toucher_node,
            PagePlacement::RoundRobin => {
                let n = self.rr_next;
                self.rr_next = (self.rr_next + 1) % self.n_nodes;
                n
            }
        };
        self.install(page, preferred)
    }

    /// Records a miss on `addr` from `from_node` for the migration policy;
    /// may migrate the page. The triggering access is still serviced by the
    /// old home; only future accesses see the new one.
    pub fn note_miss(&mut self, addr: Addr, from_node: usize) -> MigrationEvent {
        let Some(cfg) = self.migration else {
            return MigrationEvent::None;
        };
        let page = self.page_of(addr);
        let Some(info) = self.pages.get_mut(page) else {
            return MigrationEvent::None;
        };
        let Some(counters) = info.counters.as_mut() else {
            return MigrationEvent::None;
        };
        counters[from_node] = counters[from_node].saturating_add(1);
        info.since_migrate = info.since_migrate.saturating_add(1);
        if from_node == info.home || info.since_migrate < cfg.cooldown {
            return MigrationEvent::None;
        }
        if counters[from_node] > counters[info.home].saturating_add(cfg.threshold) {
            let old = info.home;
            info.home = from_node;
            info.since_migrate = 0;
            for c in counters.iter_mut() {
                *c = 0;
            }
            self.used[old] -= 1;
            self.used[from_node] += 1;
            self.migrations += 1;
            return MigrationEvent::Migrated(old, from_node);
        }
        MigrationEvent::None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(nodes: usize, placement: PagePlacement) -> PageTable {
        PageTable::new(1024, nodes, 1 << 30, placement, None)
    }

    #[test]
    fn first_touch_homes_on_toucher() {
        let mut t = table(4, PagePlacement::FirstTouch);
        assert_eq!(t.home_of(0, 2), 2);
        assert_eq!(t.home_of(100, 3), 2); // same page, home sticks
        assert_eq!(t.home_of(1024, 3), 3);
    }

    #[test]
    fn round_robin_cycles_nodes() {
        let mut t = table(3, PagePlacement::RoundRobin);
        assert_eq!(t.home_of(0, 0), 0);
        assert_eq!(t.home_of(1024, 0), 1);
        assert_eq!(t.home_of(2048, 0), 2);
        assert_eq!(t.home_of(3072, 0), 0);
    }

    #[test]
    fn explicit_placement_overrides_policy() {
        let mut t = table(4, PagePlacement::FirstTouch);
        t.place_range(0, 4096, 3);
        assert_eq!(t.home_of(0, 0), 3);
        assert_eq!(t.home_of(4095, 1), 3);
        assert_eq!(t.home_of(4096, 1), 1); // past the placed range
    }

    #[test]
    fn capacity_spills_to_least_loaded() {
        // 2 pages per node.
        let mut t = PageTable::new(1024, 2, 2048, PagePlacement::FirstTouch, None);
        assert_eq!(t.home_of(0, 0), 0);
        assert_eq!(t.home_of(1024, 0), 0);
        // Node 0 is full: the next first-touch by node 0 spills to node 1.
        assert_eq!(t.home_of(2048, 0), 1);
        assert_eq!(t.pages_per_node(), &[2, 1]);
    }

    #[test]
    fn migration_triggers_after_threshold() {
        let mig = MigrationConfig {
            threshold: 4,
            cooldown: 0,
        };
        let mut t = PageTable::new(1024, 2, 1 << 30, PagePlacement::FirstTouch, Some(mig));
        assert_eq!(t.home_of(0, 0), 0);
        for _ in 0..4 {
            assert_eq!(t.note_miss(0, 1), MigrationEvent::None);
        }
        // 5th remote miss exceeds home count (0) + threshold (4).
        assert_eq!(t.note_miss(0, 1), MigrationEvent::Migrated(0, 1));
        assert_eq!(t.home_of(0, 0), 1);
        assert_eq!(t.migrations(), 1);
    }

    #[test]
    fn migration_respects_cooldown_and_home_traffic() {
        let mig = MigrationConfig {
            threshold: 2,
            cooldown: 100,
        };
        let mut t = PageTable::new(1024, 2, 1 << 30, PagePlacement::FirstTouch, Some(mig));
        t.home_of(0, 0);
        for _ in 0..50 {
            assert_eq!(t.note_miss(0, 1), MigrationEvent::None); // cooldown holds
        }
        // Home-node traffic keeps the counter race balanced.
        let mut t2 = PageTable::new(
            1024,
            2,
            1 << 30,
            PagePlacement::FirstTouch,
            Some(MigrationConfig {
                threshold: 2,
                cooldown: 0,
            }),
        );
        t2.home_of(0, 0);
        for _ in 0..100 {
            t2.note_miss(0, 0);
            assert_eq!(t2.note_miss(0, 1), MigrationEvent::None);
        }
    }

    #[test]
    fn migration_disabled_never_moves() {
        let mut t = table(2, PagePlacement::FirstTouch);
        t.home_of(0, 0);
        for _ in 0..10_000 {
            assert_eq!(t.note_miss(0, 1), MigrationEvent::None);
        }
    }
}
