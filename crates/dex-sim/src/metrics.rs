//! Per-step cost metrics and summaries.
//!
//! Theorem 1 is a statement about three counters per adversarial step:
//! rounds, messages, topology changes. Every experiment in the harness
//! ultimately reports a [`Summary`] of a stream of [`StepMetrics`].

/// What the adversary did in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// One node inserted.
    Insert,
    /// One node deleted.
    Delete,
    /// Batch of `k` insertions (Sect. 5 extension).
    BatchInsert(u32),
    /// Batch of `k` deletions (Sect. 5 extension).
    BatchDelete(u32),
    /// Runtime reconfiguration (fault spec installed or cleared) —
    /// charges nothing but keeps the step ledger contiguous.
    Config,
}

/// Which recovery flavour the algorithm used in a step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Plain type-1 (random-walk rebalancing).
    Type1,
    /// Type-1 while a staggered type-2 is in progress (worst-case variant).
    Type1Staggered,
    /// Simplified one-shot inflation (Algorithm 4.5).
    InflateSimple,
    /// Simplified one-shot deflation (Algorithm 4.6).
    DeflateSimple,
    /// A staggered inflation was initiated or advanced this step.
    InflateStaggered,
    /// A staggered deflation was initiated or advanced this step.
    DeflateStaggered,
}

impl RecoveryKind {
    /// Is this one of the type-2 (virtual-graph replacement) flavours?
    pub fn is_type2(self) -> bool {
        !matches!(self, RecoveryKind::Type1 | RecoveryKind::Type1Staggered)
    }
}

/// Cost of a single adversarial step and its recovery.
#[derive(Debug, Clone, Copy)]
pub struct StepMetrics {
    /// Step index (1-based, matching the paper's `t`).
    pub step: u64,
    /// What the adversary did.
    pub kind: StepKind,
    /// Which recovery ran.
    pub recovery: RecoveryKind,
    /// Synchronous rounds used by recovery.
    pub rounds: u64,
    /// Messages sent during recovery.
    pub messages: u64,
    /// Edges added or removed by the *algorithm* (adversarial attach /
    /// attack edges are not charged).
    pub topology_changes: u64,
    /// Conflict-free waves the parallel batch-heal engine applied this
    /// step (0 when the step healed through the sequential path). Pure
    /// observability: the metered costs above are charged identically
    /// either way.
    pub waves: u32,
    /// Network size after the step.
    pub n_after: usize,
}

/// Order statistics over a metric stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile — the serving harness's headline tail number
    /// (same nearest-rank scheme as p95/p99; equals `max` below 1000
    /// samples, as nearest-rank must).
    pub p999: u64,
    /// Maximum.
    pub max: u64,
}

impl Summary {
    /// Summarize a sequence of values. Returns a zero summary when empty.
    pub fn of(values: impl IntoIterator<Item = u64>) -> Summary {
        let mut v: Vec<u64> = values.into_iter().collect();
        if v.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                p50: 0,
                p95: 0,
                p99: 0,
                p999: 0,
                max: 0,
            };
        }
        v.sort_unstable();
        let count = v.len();
        let mean = v.iter().sum::<u64>() as f64 / count as f64;
        // Nearest-rank percentile: smallest value with at least q·count
        // values ≤ it.
        let pct = |q: f64| -> u64 {
            let idx = ((q * count as f64).ceil() as usize).clamp(1, count) - 1;
            v[idx]
        };
        Summary {
            count,
            mean,
            p50: pct(0.50),
            p95: pct(0.95),
            p99: pct(0.99),
            p999: pct(0.999),
            max: *v.last().expect("nonempty"),
        }
    }
}

/// Compact columnar log of a [`StepMetrics`] stream: just the three
/// counters Theorem 1 talks about, one `u64` column each, plus the type-2
/// step count. This is what a streaming driver retains per step instead of
/// whole `StepMetrics` records (24 bytes/step vs. the full struct), and it
/// is exactly the input [`Summary`] percentiles need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepLog {
    /// Rounds per step.
    pub rounds: Vec<u64>,
    /// Messages per step.
    pub messages: Vec<u64>,
    /// Topology changes per step.
    pub topology: Vec<u64>,
    /// Steps whose recovery was a type-2 flavour.
    pub type2_steps: usize,
}

impl StepLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one step's counters.
    pub fn push(&mut self, m: &StepMetrics) {
        self.rounds.push(m.rounds);
        self.messages.push(m.messages);
        self.topology.push(m.topology_changes);
        if m.recovery.is_type2() {
            self.type2_steps += 1;
        }
    }

    /// Number of steps logged.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }
}

/// Percentile aggregate over a whole [`StepMetrics`] stream — the shape
/// every scenario/workload report reduces to. Aggregates from several
/// independent trials concatenate before summarizing (the percentiles are
/// over the pooled per-step samples).
#[derive(Debug, Clone, PartialEq)]
pub struct StepAggregate {
    /// Number of steps pooled.
    pub steps: usize,
    /// Rounds per step.
    pub rounds: Summary,
    /// Messages per step.
    pub messages: Summary,
    /// Topology changes per step.
    pub topology: Summary,
    /// Steps whose recovery was a type-2 flavour.
    pub type2_steps: usize,
}

impl StepAggregate {
    /// Aggregate a stream of per-step metrics.
    pub fn of<'a>(steps: impl IntoIterator<Item = &'a StepMetrics>) -> StepAggregate {
        let mut rounds = Vec::new();
        let mut messages = Vec::new();
        let mut topology = Vec::new();
        let mut type2_steps = 0usize;
        for m in steps {
            rounds.push(m.rounds);
            messages.push(m.messages);
            topology.push(m.topology_changes);
            if m.recovery.is_type2() {
                type2_steps += 1;
            }
        }
        StepAggregate {
            steps: rounds.len(),
            rounds: Summary::of(rounds),
            messages: Summary::of(messages),
            topology: Summary::of(topology),
            type2_steps,
        }
    }

    /// Pool the [`StepLog`]s of a slice of reports into one aggregate —
    /// the single pooling entry point every trial/shard harness shares
    /// (`dex-workload` trials, the bench churn trials, the serving
    /// harness's per-shard logs). Each report exposes its log through
    /// [`HasStepLog`].
    pub fn pooled<T: HasStepLog>(reports: &[T]) -> StepAggregate {
        StepAggregate::of_logs(reports.iter().map(|r| r.step_log()))
    }

    /// Pool several trials' [`StepLog`]s into one aggregate (percentiles
    /// over the concatenated per-step samples, matching
    /// [`StepAggregate::of`] on the equivalent `StepMetrics` stream).
    pub fn of_logs<'a>(logs: impl IntoIterator<Item = &'a StepLog>) -> StepAggregate {
        let logs: Vec<&StepLog> = logs.into_iter().collect();
        let steps = logs.iter().map(|l| l.len()).sum();
        let pool = |col: fn(&StepLog) -> &[u64]| {
            Summary::of(logs.iter().flat_map(|l| col(l).iter().copied()))
        };
        StepAggregate {
            steps,
            rounds: pool(|l| &l.rounds),
            messages: pool(|l| &l.messages),
            topology: pool(|l| &l.topology),
            type2_steps: logs.iter().map(|l| l.type2_steps).sum(),
        }
    }
}

/// Anything that carries a per-step [`StepLog`] — the hook
/// [`StepAggregate::pooled`] aggregates over, so every report type
/// (workload trials, bench churn trials, serve shards) pools through the
/// same code path instead of hand-rolling `of_logs` adapters.
pub trait HasStepLog {
    /// The report's columnar per-step log.
    fn step_log(&self) -> &StepLog;
}

impl HasStepLog for StepLog {
    fn step_log(&self) -> &StepLog {
        self
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean {:.1}  p50 {}  p95 {}  p99 {}  p999 {}  max {}  (k={})",
            self.mean, self.p50, self.p95, self.p99, self.p999, self.max, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_empty() {
        let s = Summary::of(std::iter::empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn summary_order_statistics() {
        let s = Summary::of(1..=100u64);
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100);
        assert_eq!(s.p50, 50);
        assert_eq!(s.p95, 95);
        assert_eq!(s.p99, 99); // index round(99·0.99) = 98 → value 99
        assert_eq!(s.p999, 100, "below 1000 samples p999 is the max");
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn summary_p999_resolves_above_1000_samples() {
        // 2000 samples: nearest-rank p999 is the ⌈0.999·2000⌉ = 1998th
        // value — strictly below the max, unlike p99's neighborhood.
        let s = Summary::of(1..=2000u64);
        assert_eq!(s.p999, 1998);
        assert_eq!(s.p99, 1980);
        assert_eq!(s.max, 2000);
        // Exactly 1000 samples: rank ⌈0.999·1000⌉ = 999 → value 999.
        let s = Summary::of(1..=1000u64);
        assert_eq!(s.p999, 999);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn summary_single_value() {
        let s = Summary::of([7u64]);
        assert_eq!(s.p50, 7);
        assert_eq!(s.p95, 7);
        assert_eq!(s.p999, 7);
        assert_eq!(s.max, 7);
    }

    #[test]
    fn step_aggregate_pools_counters() {
        let mk = |step: u64, rounds: u64, recovery: RecoveryKind| StepMetrics {
            step,
            kind: StepKind::Insert,
            recovery,
            rounds,
            messages: rounds * 10,
            topology_changes: 2,
            waves: 0,
            n_after: 16,
        };
        let steps = vec![
            mk(1, 4, RecoveryKind::Type1),
            mk(2, 8, RecoveryKind::InflateSimple),
            mk(3, 6, RecoveryKind::Type1),
        ];
        let agg = StepAggregate::of(&steps);
        assert_eq!(agg.steps, 3);
        assert_eq!(agg.type2_steps, 1);
        assert_eq!(agg.rounds.max, 8);
        assert_eq!(agg.rounds.p50, 6);
        assert_eq!(agg.messages.max, 80);
        assert_eq!(agg.topology.p50, 2);
        let empty = StepAggregate::of(std::iter::empty());
        assert_eq!(empty.steps, 0);
        assert_eq!(empty.type2_steps, 0);
    }

    #[test]
    fn log_pooling_matches_full_metrics_aggregate() {
        let mk = |step: u64, rounds: u64, recovery: RecoveryKind| StepMetrics {
            step,
            kind: StepKind::Insert,
            recovery,
            rounds,
            messages: rounds * 3 + 1,
            topology_changes: step % 4,
            waves: 0,
            n_after: 9,
        };
        let steps: Vec<StepMetrics> = (1..40)
            .map(|i| {
                mk(
                    i,
                    i * 7 % 13,
                    if i % 5 == 0 {
                        RecoveryKind::DeflateSimple
                    } else {
                        RecoveryKind::Type1
                    },
                )
            })
            .collect();
        // Split the stream over two logs like two trials would.
        let mut a = StepLog::new();
        let mut b = StepLog::new();
        for (i, m) in steps.iter().enumerate() {
            if i % 2 == 0 { &mut a } else { &mut b }.push(m);
        }
        assert_eq!(
            StepAggregate::of_logs([&a, &b]),
            StepAggregate::of(&steps),
            "pooled log percentiles must match the StepMetrics path"
        );
        // The shared report-pooling entry point is the same computation.
        assert_eq!(
            StepAggregate::pooled(&[a.clone(), b.clone()]),
            StepAggregate::of(&steps),
            "StepAggregate::pooled must match of_logs"
        );
        assert_eq!(StepAggregate::of_logs([]).steps, 0);
        assert_eq!(StepAggregate::pooled::<StepLog>(&[]).steps, 0);
        // p999 pools over the concatenated samples like every other rank.
        let agg = StepAggregate::of_logs([&a, &b]);
        assert_eq!(agg.rounds.p999, agg.rounds.max, "39 samples: p999 = max");
    }

    #[test]
    fn recovery_kind_classification() {
        assert!(!RecoveryKind::Type1.is_type2());
        assert!(!RecoveryKind::Type1Staggered.is_type2());
        assert!(RecoveryKind::InflateSimple.is_type2());
        assert!(RecoveryKind::DeflateStaggered.is_type2());
    }
}
