//! Batch churn: multiple insertions or deletions per step
//! (paper, Sect. 5 and Corollary 2).
//!
//! The adversary may insert or delete up to εn nodes at once, subject to
//! the paper's conditions: each inserted node attaches to an existing
//! node with only O(1) newcomers per attach point; deletions leave the
//! remainder connected with at least one surviving neighbor per victim.
//! Recovery may lean on the simplified type-2 procedures every O(1) steps,
//! for O(n log² n) messages and O(log³ n) rounds per batch.
//!
//! Implementation: the batch shares one step scope. Without a fault spec,
//! batches of at least [`crate::parheal::PAR_BATCH_MIN`] ops are applied
//! by the deterministic **parallel wave engine** ([`crate::parheal`]): ops
//! are speculatively planned, partitioned into conflict-free waves over
//! their touch sets, and committed in canonical order — bit-identical to
//! sequential application for any thread count. Smaller batches, every
//! batch while a fault spec is installed (zero spec included), and any op
//! whose heal leaves the type-1 fast path (walk miss, type-2 trigger) run
//! through the sequential per-op machinery below, which also survives as
//! [`DexNetwork::insert_batch_seq`] / [`DexNetwork::delete_batch_seq`] —
//! the differential oracle (`tests/batch_par.rs`) and the `bench_batch`
//! baseline.

use crate::config::RecoveryMode;
use crate::dex::DexNetwork;
use crate::parheal::{self, BatchOp, PAR_BATCH_MIN};
use dex_graph::ids::NodeId;
use dex_sim::{RecoveryKind, StepKind, StepMetrics};

/// Maximum newcomers per attach point in one batch (the paper's O(1)
/// anti-congestion bound, Sect. 5).
pub const MAX_ATTACH_FAN_IN: usize = 8;

impl DexNetwork {
    /// Insert a batch of `(new_node, attach_to)` pairs in one adversarial
    /// step, healed by the parallel wave engine (sequentially below
    /// [`PAR_BATCH_MIN`] ops or under a fault spec). Requires simplified
    /// mode (the staggered machinery assumes one event per step, as in the
    /// paper).
    ///
    /// # Panics
    /// Panics on duplicate ids, missing attach points, or more than O(1)
    /// newcomers per attach point (the paper's congestion condition).
    pub fn insert_batch(&mut self, joins: &[(NodeId, NodeId)]) -> StepMetrics {
        self.validate_insert_batch(joins);
        self.step_no += 1;
        self.net.begin_step();
        let used_type2 = if self.wave_eligible(joins.len()) {
            let mut ops = std::mem::take(&mut self.heal.par.ops);
            ops.clear();
            ops.extend(joins.iter().map(|&(u, v)| BatchOp::Insert { u, v }));
            self.heal.par.ops = ops;
            parheal::run_batch(self, self.heal_threads)
        } else {
            self.apply_insert_batch_seq(joins)
        };
        self.net.end_step(
            StepKind::BatchInsert(joins.len() as u32),
            if used_type2 {
                RecoveryKind::InflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// [`DexNetwork::insert_batch`] through the sequential one-op-at-a-time
    /// path, regardless of batch size. Kept as the differential oracle for
    /// the wave engine: both paths must produce bit-identical network, Φ,
    /// and metric state.
    pub fn insert_batch_seq(&mut self, joins: &[(NodeId, NodeId)]) -> StepMetrics {
        self.validate_insert_batch(joins);
        self.step_no += 1;
        self.net.begin_step();
        let used_type2 = self.apply_insert_batch_seq(joins);
        self.net.end_step(
            StepKind::BatchInsert(joins.len() as u32),
            if used_type2 {
                RecoveryKind::InflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// Does a batch of `ops` ops go through the wave engine? Only fault-free
    /// batches of at least [`PAR_BATCH_MIN`] ops do; the rest heal through
    /// the sequential path (identical results either way).
    fn wave_eligible(&self, ops: usize) -> bool {
        ops >= PAR_BATCH_MIN && self.faults.is_none()
    }

    /// Validate the whole batch before touching any state: fan-in per
    /// attach point (the paper's O(1) anti-congestion requirement,
    /// counted in one pass), newcomer uniqueness, no collision with a
    /// live node, and attach-point existence — an attach point may be a
    /// live node or an *earlier newcomer of the same batch* (healing
    /// runs pair-by-pair, so chained joins are well-defined). A
    /// mid-batch panic after partial mutation would leave the fabric
    /// unhealable.
    fn validate_insert_batch(&mut self, joins: &[(NodeId, NodeId)]) {
        assert_eq!(
            self.cfg.mode,
            RecoveryMode::Simplified,
            "batch mode requires simplified type-2 (Sect. 5)"
        );
        assert!(!joins.is_empty());
        self.heal.fan_in.clear();
        self.heal.seen.clear();
        for &(u, v) in joins {
            let fan = self.heal.fan_in.entry(v).or_insert(0);
            *fan += 1;
            let fan = *fan;
            assert!(
                fan <= MAX_ATTACH_FAN_IN,
                "attach fan-in {fan} at {v} violates O(1) bound"
            );
            assert!(
                self.net.graph().has_node(v) || self.heal.seen.contains(&v),
                "attach point {v} missing"
            );
            assert!(self.heal.seen.insert(u), "duplicate newcomer {u} in batch");
            assert!(
                !self.net.graph().has_node(u),
                "newcomer {u} collides with an existing node"
            );
        }
    }

    /// Sequential application body shared by the oracle path and small
    /// batches.
    fn apply_insert_batch_seq(&mut self, joins: &[(NodeId, NodeId)]) -> bool {
        let mut used_type2 = false;
        for &(u, v) in joins {
            self.net.adversary_add_node(u);
            self.net.adversary_add_edge(u, v);
            used_type2 |= self.heal_one_insert(u, v);
        }
        used_type2
    }

    /// Delete a batch of victims in one adversarial step, healed by the
    /// parallel wave engine (sequentially below [`PAR_BATCH_MIN`] ops or
    /// under a fault spec).
    /// The remainder graph must stay connected (checked after healing,
    /// which restores the contraction fabric and hence connectivity).
    pub fn delete_batch(&mut self, victims: &[NodeId]) -> StepMetrics {
        self.validate_delete_batch(victims);
        self.step_no += 1;
        self.net.begin_step();
        let used_type2 = if self.wave_eligible(victims.len()) {
            let mut ops = std::mem::take(&mut self.heal.par.ops);
            ops.clear();
            ops.extend(victims.iter().map(|&victim| BatchOp::Delete { victim }));
            self.heal.par.ops = ops;
            parheal::run_batch(self, self.heal_threads)
        } else {
            self.apply_delete_batch_seq(victims)
        };
        self.net.end_step(
            StepKind::BatchDelete(victims.len() as u32),
            if used_type2 {
                RecoveryKind::DeflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// [`DexNetwork::delete_batch`] through the sequential path — the
    /// differential oracle (see [`DexNetwork::insert_batch_seq`]).
    pub fn delete_batch_seq(&mut self, victims: &[NodeId]) -> StepMetrics {
        self.validate_delete_batch(victims);
        self.step_no += 1;
        self.net.begin_step();
        let used_type2 = self.apply_delete_batch_seq(victims);
        self.net.end_step(
            StepKind::BatchDelete(victims.len() as u32),
            if used_type2 {
                RecoveryKind::DeflateSimple
            } else {
                RecoveryKind::Type1
            },
        )
    }

    /// Validate before mutating: victims must be live and distinct.
    fn validate_delete_batch(&mut self, victims: &[NodeId]) {
        assert_eq!(self.cfg.mode, RecoveryMode::Simplified);
        assert!(!victims.is_empty());
        assert!(
            victims.len() < self.n() - 1,
            "batch would empty the network"
        );
        self.heal.seen.clear();
        for &victim in victims {
            assert!(self.net.graph().has_node(victim), "victim {victim} missing");
            assert!(
                self.heal.seen.insert(victim),
                "duplicate victim {victim} in batch"
            );
        }
    }

    /// Sequential application body shared by the oracle path and small
    /// batches.
    fn apply_delete_batch_seq(&mut self, victims: &[NodeId]) -> bool {
        let mut used_type2 = false;
        for &victim in victims {
            // Every victim must keep one surviving neighbor (paper's
            // condition); because healing runs victim-by-victim, the
            // previous victims' vertices have already been rehomed.
            self.heal.nbrs.clear();
            let nbrs = &mut self.heal.nbrs;
            nbrs.extend(
                self.net
                    .graph()
                    .neighbors(victim)
                    .iter()
                    .filter(|&w| w != victim),
            );
            nbrs.sort_unstable();
            nbrs.dedup();
            assert!(!nbrs.is_empty(), "victim {victim} lost all neighbors");
            let rescuer = nbrs[0];
            self.net.adversary_remove_node(victim);
            used_type2 |= self.heal_one_delete(victim, rescuer);
        }
        used_type2
    }

    /// Type-1 insert healing inside an open step; returns whether type-2
    /// was needed.
    pub(crate) fn heal_one_insert(&mut self, u: NodeId, v: NodeId) -> bool {
        use dex_sim::rng::Purpose;
        use dex_sim::tokens::random_walk_search;
        if self.faults.is_some() {
            return self.heal_one_insert_faulted(u, v);
        }
        let walk_len = self.cfg.walk_len(self.cycle.p());
        for attempt in 0..self.cfg.max_walk_retries {
            self.walk_stats.attempts += 1;
            let map = &self.map;
            let mut rng = self
                .seeds
                .stream(Purpose::InsertWalk, &[self.step_no, u.0, attempt]);
            let out = random_walk_search(
                &mut self.net,
                v,
                walk_len,
                Some(u),
                |w| map.is_spare(w),
                &mut rng,
            );
            if let Some(w) = out.hit {
                self.walk_stats.hits += 1;
                self.give_vertex_to_new_node(w, u, v);
                return false;
            }
            self.walk_stats.misses += 1;
            let res = dex_sim::flood::flood_count_with(
                &mut self.net,
                v,
                |w| map.is_spare(w),
                &mut self.flood_scratch,
            );
            if !self
                .cfg
                .spare_sufficient(res.matching, res.n.saturating_sub(1))
            {
                self.walk_stats.type2 += 1;
                crate::type2_simple::inflate(self, Some((u, v)));
                return true;
            }
        }
        panic!("batch insertion starved (n={})", self.n());
    }

    /// Type-1 delete healing inside an open step; returns whether type-2
    /// was needed. Detaches the pooled vertex buffer from `self` for the
    /// duration (see [`crate::scratch::HealScratch`]).
    pub(crate) fn heal_one_delete(&mut self, victim: NodeId, rescuer: NodeId) -> bool {
        let mut zs = std::mem::take(&mut self.heal.zs);
        zs.clear();
        zs.extend_from_slice(self.map.sim(victim));
        let used_type2 = self.heal_one_delete_core(victim, rescuer, &zs);
        self.heal.zs = zs;
        used_type2
    }

    fn heal_one_delete_core(
        &mut self,
        victim: NodeId,
        rescuer: NodeId,
        zs: &[dex_graph::ids::VertexId],
    ) -> bool {
        use dex_sim::rng::Purpose;
        use dex_sim::tokens::random_walk_search;
        if self.faults.is_some() {
            return self.heal_one_delete_core_faulted(victim, rescuer, zs);
        }
        crate::fabric::adopt_vertices(
            &mut self.net,
            &mut self.map,
            &self.cycle,
            zs,
            rescuer,
            &mut self.heal.insts,
        );
        self.net.charge_messages(3 * zs.len() as u64);
        self.net.charge_rounds(1);
        let walk_len = self.cfg.walk_len(self.cycle.p());
        let mut used_type2 = false;
        for (i, &z) in zs.iter().enumerate() {
            let mut attempt = 0u64;
            loop {
                self.walk_stats.attempts += 1;
                let map = &self.map;
                let mut rng = self.seeds.stream(
                    Purpose::DeleteWalk,
                    &[self.step_no, victim.0, i as u64, attempt],
                );
                let out = random_walk_search(
                    &mut self.net,
                    rescuer,
                    walk_len,
                    None,
                    |w| map.is_low(w),
                    &mut rng,
                );
                if let Some(w) = out.hit {
                    self.walk_stats.hits += 1;
                    if w != rescuer {
                        crate::fabric::move_vertices(
                            &mut self.net,
                            &mut self.map,
                            &self.cycle,
                            &[z],
                            w,
                            &mut self.heal.insts,
                        );
                        self.net.charge_messages(4);
                        self.net.charge_rounds(1);
                    }
                    break;
                }
                self.walk_stats.misses += 1;
                let res = dex_sim::flood::flood_count_with(
                    &mut self.net,
                    rescuer,
                    |w| map.is_low(w),
                    &mut self.flood_scratch,
                );
                if !self.cfg.low_sufficient(res.matching, res.n) {
                    self.walk_stats.type2 += 1;
                    crate::type2_simple::deflate(self, rescuer);
                    used_type2 = true;
                    break; // this vertex was rehomed by the deflation
                }
                attempt += 1;
                assert!(
                    attempt < self.cfg.max_walk_retries,
                    "batch deletion starved"
                );
            }
            if used_type2 {
                break; // remaining vertices were redistributed by deflate
            }
        }
        used_type2
    }
}
