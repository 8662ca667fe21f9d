//! In-memory span recorder for the traced run, and the self-time ledger
//! built from its spans.
//!
//! Spans are recorded only at the benchmark's own call sites — around
//! each call into a layer's public function — never inside the program.
//! Every tracer of one run shares one epoch, so spans from different
//! executor threads are on one time axis. With tracing off a tracer still
//! hands out timestamps (the benchmark needs per-call latencies in every
//! run) but stores nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a span that has no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// What a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// The measured phase (root; its width is the number of executor
    /// lanes the shards fan out over).
    Phase,
    /// One shard's bootstrap (set-up; outside the phase tree).
    Bootstrap,
    /// One shard's closed-loop caller inside the fan-out.
    Shard,
    /// One `dht_insert` / `dht_lookup` call.
    Dht,
    /// One churn call healed by type-1 walks alone (`insert`, `delete`,
    /// or a batch below the wave engine's `PAR_BATCH_MIN`).
    Type1,
    /// One churn call outside the wave engine in which a walk missed and forced a flood
    /// count (`walk_stats.misses` rose) without a type-2 rebuild.
    Flood,
    /// One churn call that ran a type-2 rebuild.
    Type2,
    /// One batch call routed through the wave engine.
    Batch,
    /// Re-run of a sampled DHT call's virtual-graph BFS.
    ReplayBfs,
    /// Re-run of a sampled DHT call's Φ owner pass.
    ReplayPhi,
}

impl Kind {
    /// Stable name used in the span dump and the layer table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Phase => "phase",
            Kind::Bootstrap => "bootstrap",
            Kind::Shard => "shard",
            Kind::Dht => "dht",
            Kind::Type1 => "type1",
            Kind::Flood => "flood",
            Kind::Type2 => "type2",
            Kind::Batch => "batch",
            Kind::ReplayBfs => "replay.bfs",
            Kind::ReplayPhi => "replay.phi",
        }
    }
}

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What the interval covers.
    pub kind: Kind,
    /// Start, ns since the run's epoch.
    pub start: u64,
    /// End, ns since the run's epoch.
    pub end: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Op id (the op's position in its lane's stream; shard index for
    /// `Shard`/`Bootstrap`, 0 for `Phase`).
    pub op: u64,
    /// Concurrent lanes the span stands for (the phase root's fan-out
    /// width; 1 otherwise).
    pub width: u32,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span store plus the shared clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer on the run's shared `epoch`; `on` decides whether spans
    /// are kept.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Are spans being kept?
    pub fn on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (or [`NO_PARENT`] when
    /// tracing is off).
    pub fn record(&mut self, kind: Kind, start: u64, end: u64, parent: u32, op: u64) -> u32 {
        self.push(Span {
            kind,
            start,
            end,
            parent,
            op,
            width: 1,
        })
    }

    /// Record a span whose end is filled in later by [`Tracer::close`]
    /// (a parent opened before its children).
    pub fn open(&mut self, kind: Kind, start: u64, parent: u32, op: u64, width: u32) -> u32 {
        self.push(Span {
            kind,
            start,
            end: start,
            parent,
            op,
            width,
        })
    }

    /// Set the end of a span returned by [`Tracer::open`].
    pub fn close(&mut self, idx: u32, end: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end = end;
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Move another tracer's spans into this one. Its root spans (no
    /// parent) are re-parented under `parent`; its internal parent links
    /// are shifted to the new positions.
    pub fn absorb(&mut self, other: &mut Tracer, parent: u32) {
        let base = self.spans.len() as u32;
        for mut s in other.spans.drain(..) {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
    }

    /// All spans, in record order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Tab-separated dump, one span per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("idx\tkind\top\tparent\tstart_ns\tend_ns\twidth\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            out.push_str(&format!(
                "{i}\t{}\t{}\t{parent}\t{}\t{}\t{}\n",
                s.kind.name(),
                s.op,
                s.start,
                s.end,
                s.width
            ));
        }
        out
    }
}

/// Self time per span kind over the tree rooted at `root`: a span's self
/// time is `width × duration` minus the durations of its children.
/// Returns the ledger and the most negative self time seen (a child that
/// does not nest inside its parent shows up there).
pub fn self_times(spans: &[Span], root: u32) -> (BTreeMap<Kind, i64>, i64) {
    let n = spans.len();
    // Membership in the root's tree: parents are always recorded before
    // their children, so one forward pass resolves it.
    let mut inside = vec![false; n];
    let mut child_ns = vec![0i64; n];
    for i in 0..n {
        let p = spans[i].parent;
        inside[i] = i as u32 == root || (p != NO_PARENT && inside[p as usize]);
        if inside[i] && i as u32 != root {
            child_ns[p as usize] += spans[i].dur() as i64;
        }
    }
    let mut ledger = BTreeMap::new();
    let mut worst = 0i64;
    for i in 0..n {
        if !inside[i] {
            continue;
        }
        let s = &spans[i];
        let own = s.width as i64 * s.dur() as i64 - child_ns[i];
        worst = worst.min(own);
        *ledger.entry(s.kind).or_insert(0) += own;
    }
    (ledger, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_scales_the_root() {
        let mut t = Tracer::new(true, Instant::now());
        let root = t.open(Kind::Phase, 0, NO_PARENT, 0, 2);
        t.close(root, 100);
        let mut lane = Tracer::new(true, Instant::now());
        let shard = lane.open(Kind::Shard, 0, NO_PARENT, 0, 1);
        lane.close(shard, 90);
        lane.record(Kind::Dht, 10, 50, shard, 1);
        lane.record(Kind::Type1, 50, 60, shard, 2);
        t.absorb(&mut lane, root);
        let (ledger, worst) = self_times(t.spans(), root);
        assert_eq!(ledger[&Kind::Phase], 200 - 90);
        assert_eq!(ledger[&Kind::Shard], 90 - 50);
        assert_eq!(ledger[&Kind::Dht], 40);
        assert_eq!(ledger[&Kind::Type1], 10);
        assert_eq!(ledger.values().sum::<i64>(), 200);
        assert_eq!(worst, 0);
    }
}
