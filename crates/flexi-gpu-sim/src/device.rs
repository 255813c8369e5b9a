//! Kernel launch, SM scheduling, and device memory tracking.

use crate::cost::CostStats;
use crate::spec::DeviceSpec;
use crate::warp::WarpCtx;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Errors raised by the simulated device.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// A device allocation exceeded remaining VRAM.
    OutOfMemory {
        /// Bytes requested by the failing allocation.
        requested: usize,
        /// Bytes still available.
        available: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes, {available} available"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Tracks simulated device-memory allocations against VRAM capacity.
///
/// Baselines that build auxiliary structures (NextDoor's transit sort,
/// Skywalker's alias tables) allocate here, so oversized runs fail with
/// the same OOM the paper reports.
#[derive(Debug)]
pub struct MemPool {
    capacity: usize,
    allocated: AtomicUsize,
}

impl MemPool {
    /// Creates a pool with `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            allocated: AtomicUsize::new(0),
        }
    }

    /// Attempts to reserve `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] if the reservation would exceed
    /// capacity; the pool is left unchanged in that case.
    pub fn try_alloc(&self, bytes: usize) -> Result<(), SimError> {
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_add(bytes);
            if new > self.capacity {
                return Err(SimError::OutOfMemory {
                    requested: bytes,
                    available: self.capacity - cur,
                });
            }
            match self.allocated.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Releases `bytes` (saturating at zero).
    pub fn free(&self, bytes: usize) {
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let new = cur.saturating_sub(bytes);
            match self.allocated.compare_exchange_weak(
                cur,
                new,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Currently reserved bytes.
    pub fn allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Pool capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Releases everything.
    pub fn reset(&self) {
        self.allocated.store(0, Ordering::Relaxed);
    }
}

/// Result of a kernel launch.
#[derive(Debug)]
pub struct LaunchReport<T> {
    /// Per-warp kernel outputs, indexed by warp id.
    pub outputs: Vec<T>,
    /// Activity aggregated over all warps.
    pub stats: CostStats,
    /// Makespan in cycles after scheduling warps onto SM slots.
    pub cycles: u64,
    /// Makespan converted to seconds at the device clock.
    pub sim_seconds: f64,
    /// Per-warp cycle costs (diagnostics and scheduling tests).
    pub per_warp_cycles: Vec<u64>,
}

/// A simulated GPU: a [`DeviceSpec`] plus a VRAM pool.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    pool: MemPool,
}

impl Device {
    /// Creates a device from `spec`.
    pub fn new(spec: DeviceSpec) -> Self {
        let pool = MemPool::new(spec.vram_bytes);
        Self { spec, pool }
    }

    /// The device description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The VRAM pool.
    pub fn pool(&self) -> &MemPool {
        &self.pool
    }

    /// Launches `kernel` over `num_warps` warps sequentially.
    ///
    /// Deterministic: warp `w` always sees Philox streams derived from
    /// `(seed, w)`, regardless of host scheduling.
    pub fn launch<T, F>(&self, num_warps: usize, seed: u64, kernel: F) -> LaunchReport<T>
    where
        F: Fn(&mut WarpCtx) -> T,
    {
        let mut outputs = Vec::with_capacity(num_warps);
        let mut per_warp_cycles = Vec::with_capacity(num_warps);
        let mut stats = CostStats::default();
        for w in 0..num_warps {
            let mut ctx = WarpCtx::with_transaction_bytes(w, seed, self.spec.transaction_bytes);
            outputs.push(kernel(&mut ctx));
            let s = ctx.into_stats();
            per_warp_cycles.push(s.cycles(&self.spec));
            stats.add(&s);
        }
        self.report(outputs, stats, per_warp_cycles)
    }

    /// Launches `kernel` over `num_warps` warps using `host_threads` OS
    /// threads.
    ///
    /// A kernel whose warps share no state gets the outputs, costs and
    /// cycles of [`Device::launch`]. A persistent kernel whose warps pop
    /// work from a shared queue does not: which warp pops which item
    /// depends on thread timing, so per-warp [`CostStats`] (atomics and
    /// shuffles included) and the makespan in simulated seconds vary from
    /// run to run and with the thread count. Its per-item outputs, such as
    /// walk paths and step counts, still match. The ROADMAP item "one
    /// deterministic device clock" tracks the fix.
    pub fn launch_parallel<T, F>(
        &self,
        num_warps: usize,
        host_threads: usize,
        seed: u64,
        kernel: F,
    ) -> LaunchReport<T>
    where
        T: Send,
        F: Fn(&mut WarpCtx) -> T + Sync,
    {
        let host_threads = host_threads.max(1).min(num_warps.max(1));
        if host_threads <= 1 {
            return self.launch(num_warps, seed, kernel);
        }
        let next_warp = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<(T, u64, CostStats)>>> =
            Mutex::new((0..num_warps).map(|_| None).collect());
        std::thread::scope(|scope| {
            for _ in 0..host_threads {
                scope.spawn(|| loop {
                    let w = next_warp.fetch_add(1, Ordering::Relaxed);
                    if w >= num_warps {
                        break;
                    }
                    let mut ctx =
                        WarpCtx::with_transaction_bytes(w, seed, self.spec.transaction_bytes);
                    let out = kernel(&mut ctx);
                    let s = ctx.into_stats();
                    let cycles = s.cycles(&self.spec);
                    results.lock().expect("warp result lock")[w] = Some((out, cycles, s));
                });
            }
        });
        let mut outputs = Vec::with_capacity(num_warps);
        let mut per_warp_cycles = Vec::with_capacity(num_warps);
        let mut stats = CostStats::default();
        for slot in results.into_inner().expect("warp result lock") {
            let (out, cycles, s) = slot.expect("all warps executed");
            outputs.push(out);
            per_warp_cycles.push(cycles);
            stats.add(&s);
        }
        self.report(outputs, stats, per_warp_cycles)
    }

    fn report<T>(
        &self,
        outputs: Vec<T>,
        stats: CostStats,
        per_warp_cycles: Vec<u64>,
    ) -> LaunchReport<T> {
        let makespan = schedule_makespan(&per_warp_cycles, self.spec.total_warp_slots());
        // DRAM bandwidth bounds the whole kernel regardless of slot count.
        let bw_cycles = (self.spec.bandwidth_seconds(&stats) * self.spec.clock_ghz * 1e9) as u64;
        let cycles = makespan.max(bw_cycles);
        let sim_seconds = self.spec.cycles_to_seconds(cycles);
        LaunchReport {
            outputs,
            stats,
            cycles,
            sim_seconds,
            per_warp_cycles,
        }
    }
}

/// Greedy list scheduling of warp costs onto `slots` parallel SM slots.
///
/// Models the hardware's dynamic warp scheduler at first order: each new
/// warp is placed on the least-loaded slot; the kernel finishes when the
/// busiest slot drains.
pub fn schedule_makespan(per_warp_cycles: &[u64], slots: usize) -> u64 {
    assert!(slots > 0, "device must have at least one warp slot");
    if per_warp_cycles.is_empty() {
        return 0;
    }
    let mut heap: BinaryHeap<Reverse<u64>> = (0..slots.min(per_warp_cycles.len()))
        .map(|_| Reverse(0u64))
        .collect();
    for &c in per_warp_cycles {
        let Reverse(load) = heap.pop().expect("heap non-empty");
        heap.push(Reverse(load + c));
    }
    heap.into_iter().map(|Reverse(l)| l).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mempool_allocates_and_frees() {
        let p = MemPool::new(100);
        assert!(p.try_alloc(60).is_ok());
        assert_eq!(p.allocated(), 60);
        let err = p.try_alloc(50).unwrap_err();
        assert_eq!(
            err,
            SimError::OutOfMemory {
                requested: 50,
                available: 40
            }
        );
        p.free(30);
        assert!(p.try_alloc(50).is_ok());
        p.reset();
        assert_eq!(p.allocated(), 0);
    }

    #[test]
    fn mempool_free_saturates() {
        let p = MemPool::new(10);
        p.free(5);
        assert_eq!(p.allocated(), 0);
    }

    #[test]
    fn makespan_single_slot_is_sum() {
        assert_eq!(schedule_makespan(&[3, 4, 5], 1), 12);
    }

    #[test]
    fn makespan_many_slots_is_max() {
        assert_eq!(schedule_makespan(&[3, 4, 5], 10), 5);
    }

    #[test]
    fn makespan_balances_greedily() {
        // Two slots, loads {5, 4, 3, 3}: greedy gives {5+3, 4+3} = 8 vs 7.
        assert_eq!(schedule_makespan(&[5, 4, 3, 3], 2), 8);
    }

    #[test]
    fn makespan_empty_is_zero() {
        assert_eq!(schedule_makespan(&[], 4), 0);
    }

    #[test]
    fn launch_collects_outputs_in_warp_order() {
        let dev = Device::new(DeviceSpec::tiny());
        let report = dev.launch(8, 1, |ctx| ctx.warp_id() * 10);
        assert_eq!(report.outputs, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn launch_aggregates_stats_and_time() {
        let dev = Device::new(DeviceSpec::tiny());
        let report = dev.launch(4, 1, |ctx| {
            ctx.read_coalesced(128);
            ctx.alu(10);
        });
        assert_eq!(report.stats.coalesced_transactions, 16);
        assert_eq!(report.stats.alu_ops, 40);
        assert!(report.cycles > 0);
        assert!(report.sim_seconds > 0.0);
        assert_eq!(report.per_warp_cycles.len(), 4);
    }

    #[test]
    fn parallel_launch_matches_sequential() {
        let dev = Device::new(DeviceSpec::tiny());
        let seq = dev.launch(16, 7, |ctx| {
            let x = ctx.draw_u32(0);
            ctx.read_random(4);
            x
        });
        let par = dev.launch_parallel(16, 4, 7, |ctx| {
            let x = ctx.draw_u32(0);
            ctx.read_random(4);
            x
        });
        assert_eq!(seq.outputs, par.outputs);
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.cycles, par.cycles);
    }

    #[test]
    fn zero_warp_launch_is_empty() {
        let dev = Device::new(DeviceSpec::tiny());
        let report = dev.launch(0, 1, |_| ());
        assert!(report.outputs.is_empty());
        assert_eq!(report.cycles, 0);
    }

    #[test]
    fn more_parallel_slots_shorten_kernels() {
        let wide = Device::new(DeviceSpec::a6000());
        let narrow = Device::new(DeviceSpec::tiny());
        let work = |ctx: &mut WarpCtx| ctx.read_coalesced(1 << 12);
        let rw = wide.launch(1000, 1, work);
        let rn = narrow.launch(1000, 1, work);
        assert!(rw.cycles < rn.cycles);
    }
}
