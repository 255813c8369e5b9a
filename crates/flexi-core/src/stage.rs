//! Per-stage wall-time accounting for the pipelined drain executor.
//!
//! A drain moves through four host-side stages — *prepare* (sequential
//! cache resolution), *launch* (shard runs on the worker pool), *merge*
//! (folding shard reports per job) and *replay* (the out-of-core block
//! schedule) — and the executor's pipelining claim is that the latter
//! stages overlap the launches instead of serialising behind them.
//! [`StageTiming`] is the measured evidence: busy seconds per stage plus
//! the *merge tail* — merge/replay work that ran **after** the last shard
//! launch finished. A staged executor pays the whole merge in the tail; a
//! pipelined one hides most of it behind launches still in flight. The
//! session accumulates one record per drain into
//! `SessionStats::stages`, from which the `benchmark/` crate derives its
//! per-layer `executor.*` shares.
//!
//! All fields are *host* wall seconds (what the calling thread and the
//! worker pool actually spent), not simulated device time; busy seconds
//! are summed across workers, so `launch_seconds` may exceed
//! `wall_seconds` on a multi-worker drain.

/// Wall-time accounting of one drain (or a cumulative sum of drains)
/// through the executor's pipeline stages.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StageTiming {
    /// Sequential preparation on the calling thread: snapshot pinning and
    /// cache resolution, before any shard launches.
    pub prepare_seconds: f64,
    /// Shard-launch busy seconds, summed across workers.
    pub launch_seconds: f64,
    /// Per-job merge busy seconds (report folding, migration census,
    /// link accounting), summed across workers.
    pub merge_seconds: f64,
    /// Out-of-core block-replay busy seconds (submission-ordered, so at
    /// most one replay runs at a time).
    pub replay_seconds: f64,
    /// Merge + replay seconds spent **after** the drain's last shard
    /// launch completed — the unhidden tail. A fully staged executor has
    /// `merge_tail_seconds == merge_seconds + replay_seconds`; pipelining
    /// shrinks the tail toward the final job's merge alone.
    pub merge_tail_seconds: f64,
    /// End-to-end wall seconds of the execute phase (prepare excluded).
    pub wall_seconds: f64,
}

impl StageTiming {
    /// Total merge-side work: per-job merges plus out-of-core replays.
    pub fn merge_work_seconds(&self) -> f64 {
        self.merge_seconds + self.replay_seconds
    }

    /// Merge-side seconds that ran while shard launches were still in
    /// flight — the work the pipeline hid.
    pub fn overlapped_seconds(&self) -> f64 {
        (self.merge_work_seconds() - self.merge_tail_seconds).max(0.0)
    }

    /// Fraction of merge-side work hidden behind launches (0 when there
    /// was no merge-side work at all).
    pub fn overlap_fraction(&self) -> f64 {
        let work = self.merge_work_seconds();
        if work <= 0.0 {
            0.0
        } else {
            self.overlapped_seconds() / work
        }
    }

    /// Accumulates another record (e.g. one more drain) into this one.
    pub fn add(&mut self, other: &StageTiming) {
        self.prepare_seconds += other.prepare_seconds;
        self.launch_seconds += other.launch_seconds;
        self.merge_seconds += other.merge_seconds;
        self.replay_seconds += other.replay_seconds;
        self.merge_tail_seconds += other.merge_tail_seconds;
        self.wall_seconds += other.wall_seconds;
    }
}

impl std::fmt::Display for StageTiming {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "prepare {:.4}s | launch {:.4}s | merge {:.4}s | replay {:.4}s | \
             tail {:.4}s ({:.0}% overlapped, wall {:.4}s)",
            self.prepare_seconds,
            self.launch_seconds,
            self.merge_seconds,
            self.replay_seconds,
            self.merge_tail_seconds,
            self.overlap_fraction() * 100.0,
            self.wall_seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_every_field() {
        let mut a = StageTiming {
            prepare_seconds: 1.0,
            launch_seconds: 2.0,
            merge_seconds: 3.0,
            replay_seconds: 4.0,
            merge_tail_seconds: 5.0,
            wall_seconds: 6.0,
        };
        a.add(&a.clone());
        assert_eq!(a.prepare_seconds, 2.0);
        assert_eq!(a.launch_seconds, 4.0);
        assert_eq!(a.merge_seconds, 6.0);
        assert_eq!(a.replay_seconds, 8.0);
        assert_eq!(a.merge_tail_seconds, 10.0);
        assert_eq!(a.wall_seconds, 12.0);
    }

    #[test]
    fn overlap_math() {
        let t = StageTiming {
            merge_seconds: 3.0,
            replay_seconds: 1.0,
            merge_tail_seconds: 1.0,
            ..Default::default()
        };
        assert_eq!(t.merge_work_seconds(), 4.0);
        assert_eq!(t.overlapped_seconds(), 3.0);
        assert!((t.overlap_fraction() - 0.75).abs() < 1e-12);
        // No merge work at all: the fraction is defined as zero.
        assert_eq!(StageTiming::default().overlap_fraction(), 0.0);
        // A tail bigger than the work (clock skew) clamps at zero overlap.
        let skew = StageTiming {
            merge_seconds: 1.0,
            merge_tail_seconds: 2.0,
            ..Default::default()
        };
        assert_eq!(skew.overlapped_seconds(), 0.0);
    }

    #[test]
    fn display_is_compact_and_complete() {
        let t = StageTiming {
            prepare_seconds: 0.5,
            launch_seconds: 1.0,
            merge_seconds: 0.25,
            replay_seconds: 0.125,
            merge_tail_seconds: 0.125,
            wall_seconds: 1.25,
        };
        let s = t.to_string();
        assert!(s.contains("prepare 0.5000s"));
        assert!(s.contains("67% overlapped"));
    }
}
