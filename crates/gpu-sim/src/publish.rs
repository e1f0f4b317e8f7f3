//! The simulator's one path into the metrics registry.
//!
//! Every count the simulator keeps has one record: [`SimStats`], the
//! cycle ledger's buckets, each DRAM channel's per-bank
//! [`crate::BankStat`]s, the per-tenant progress and each engine's
//! `extra_stats`. With telemetry enabled, a [`Publisher`] copies those
//! records into the registry: at every epoch boundary, at a halt and in
//! finalize it adds each counter's growth since its previous publish,
//! so epoch deltas and totals match the records exactly; in finalize it
//! also adds every merged engine statistic as `engine.<key>`. Only the
//! `fill.latency_cycles` histogram is recorded as fills happen. This
//! module spells every metric name the simulator crates register.

use crate::hash::FastHashMap;
use crate::ledger::{StallBucket, NUM_STALL_BUCKETS};
use crate::stats::{DramStats, SimStats, TrafficClass};
use crate::tenant::TenantStat;
use plutus_telemetry::{Counter, Histogram, Telemetry};
use std::collections::BTreeMap;

/// One registry counter fed from a running total.
struct Mirror {
    counter: Counter,
    /// The largest total published so far.
    published: u64,
}

impl Mirror {
    fn new(tel: &Telemetry, name: &str) -> Self {
        Self {
            counter: tel.counter(name),
            published: 0,
        }
    }

    /// Adds the growth of `total` since the previous publish. A total
    /// that shrank (a halted run's ledger trim) adds nothing.
    fn publish(&mut self, total: u64) {
        if total > self.published {
            self.counter.add(total - self.published);
            self.published = total;
        }
    }
}

/// The registry metrics of one simulator.
pub(crate) struct Publisher {
    tel: Telemetry,
    /// `fill.latency_cycles`: arrival at the controller → verified data.
    pub(crate) fill_latency: Histogram,
    /// `traffic.<class>.read_bytes`, then `.write_bytes`, each indexed
    /// by [`TrafficClass::idx`].
    traffic: [[Mirror; 6]; 2],
    /// `l2.hits`, `l2.misses`, `mshr.merges`, `mshr.stalls`,
    /// `violations`.
    sim: [Mirror; 5],
    /// `ledger.<bucket>`, indexed by [`StallBucket::idx`].
    ledger: [Mirror; NUM_STALL_BUCKETS],
    /// `dram.row_hits`, `dram.row_misses`, `dram.bank_busy_cycles`.
    dram: [Mirror; 3],
    /// `tenant.t<id>.*` and `engine.<key>`, registered on first publish.
    named: BTreeMap<String, Mirror>,
}

impl Publisher {
    /// Registers the fixed counters and the histogram in `tel` (no-op
    /// handles when it is disabled).
    pub(crate) fn new(tel: &Telemetry) -> Self {
        let mirror = |name: &str| Mirror::new(tel, name);
        Self {
            tel: tel.clone(),
            fill_latency: tel.histogram("fill.latency_cycles"),
            traffic: ["read", "write"].map(|dir| {
                TrafficClass::ALL.map(|c| mirror(&format!("traffic.{}.{dir}_bytes", c.label())))
            }),
            sim: [
                "l2.hits",
                "l2.misses",
                "mshr.merges",
                "mshr.stalls",
                "violations",
            ]
            .map(mirror),
            ledger: StallBucket::ALL.map(|b| mirror(&format!("ledger.{}", b.label()))),
            dram: ["dram.row_hits", "dram.row_misses", "dram.bank_busy_cycles"].map(mirror),
            named: BTreeMap::new(),
        }
    }

    fn publish_named(&mut self, name: String, total: u64) {
        let tel = &self.tel;
        self.named
            .entry(name)
            .or_insert_with_key(|n| Mirror::new(tel, n))
            .publish(total);
    }

    /// Publishes the growth of every per-epoch counter: `stats`, the
    /// ledger's bucket `totals`, `dram`'s row and busy counts, and the
    /// per-tenant progress in id order.
    pub(crate) fn publish(
        &mut self,
        stats: &SimStats,
        ledger: &[u64; NUM_STALL_BUCKETS],
        dram: &DramStats,
        tenants: &FastHashMap<u32, TenantStat>,
    ) {
        let [reads, writes] = &mut self.traffic;
        for ((r, w), t) in reads.iter_mut().zip(writes).zip(&stats.traffic) {
            r.publish(t.read_bytes);
            w.publish(t.write_bytes);
        }
        let sim = [
            stats.l2_hits,
            stats.l2_misses,
            stats.mshr_merges,
            stats.mshr_stalls,
            stats.violations,
        ];
        for (m, total) in self.sim.iter_mut().zip(sim) {
            m.publish(total);
        }
        for (m, total) in self.ledger.iter_mut().zip(ledger) {
            m.publish(*total);
        }
        let dram = [dram.row_hits, dram.row_misses, dram.bank_busy_cycles];
        for (m, total) in self.dram.iter_mut().zip(dram) {
            m.publish(total);
        }
        let mut ids: Vec<u32> = tenants.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let t = tenants[&id];
            self.publish_named(format!("tenant.t{id}.instructions"), t.instructions);
            self.publish_named(format!("tenant.t{id}.violations"), t.violations);
        }
    }

    /// Publishes every merged engine statistic as `engine.<key>`.
    pub(crate) fn publish_engine(&mut self, engine: &[(String, u64)]) {
        for (key, total) in engine {
            self.publish_named(format!("engine.{key}"), *total);
        }
    }
}
