//! Order statistics, the simulated-run summary every workload compares
//! across repetitions, and the pass/fail tally.

use lac_power::{ChipEnergyModel, ClusterEnergyModel};
use lac_sim::{ChipStats, ClusterStats, LacConfig};

/// Fewest set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 5;
/// Fewest seconds of set-up per run: a set-up of a few milliseconds is
/// repeated until its median is steady.
pub(crate) const SETUP_MIN_S: f64 = 0.5;

/// True once `times` (seconds per set-up) hold enough set-ups.
pub(crate) fn enough_setups(times: &[f64]) -> bool {
    times.len() >= SETUPS && times.iter().sum::<f64>() >= SETUP_MIN_S
}

/// Median of `v` (mean of the middle pair for even lengths; 0 if empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an ascending slice: the sample of rank
/// `ceil(q · n)` (0 if empty) — the same rank rule as
/// `lac_traffic::LatencyHistogram::percentile`.
pub fn nearest_rank<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// CPU seconds consumed so far by every thread of this process, exited
/// threads included (`CLOCK_PROCESS_CPUTIME_ID`). Unlike wall time it does
/// not grow while the host runs other guests on this machine's CPUs.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // valid constant, so the C library writes only inside `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size of this process (`getrusage` `ru_maxrss`, the
/// same high-water mark as `VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    /// `struct rusage` on 64-bit Linux: two `struct timeval`s, then 14
    /// `long`s, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage {
        times: [i64; 4],
        longs: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        times: [0; 4],
        longs: [0; 14],
    };
    // SAFETY: `usage` is a live, writable buffer with the size and layout
    // of `struct rusage` on 64-bit Linux for the whole call, and
    // `RUSAGE_SELF` is a valid selector, so the C library writes only
    // inside `usage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "the process's own usage is always readable");
    usage.longs[0] as f64 / 1024.0
}

/// A run's host-clock numbers: the median set-up, throughput on the wall
/// clock and on the process CPU clock (medians over the measured
/// repetitions), and peak memory.
#[derive(Clone, Debug, Default)]
pub struct Host {
    /// Median set-up, wall seconds.
    pub setup_s: f64,
    /// Jobs per wall second.
    pub jobs_per_s: f64,
    /// Simulated core-busy megacycles per wall second.
    pub sim_mcycles_per_s: f64,
    /// Jobs per process CPU second.
    pub jobs_per_cpu_s: f64,
    /// Simulated core-busy megacycles per process CPU second.
    pub sim_mcycles_per_cpu_s: f64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

impl Host {
    /// Every measured repetition simulates `jobs` jobs and `busy_cycles`
    /// core-busy cycles; `wall_s` and `cpu_s` hold each repetition's
    /// seconds on the two clocks.
    pub fn new(
        setup_s: &[f64],
        jobs: f64,
        busy_cycles: f64,
        wall_s: &[f64],
        cpu_s: &[f64],
    ) -> Self {
        let rate = |amount: f64, secs: &[f64]| {
            let rates: Vec<f64> = secs.iter().map(|s| amount / s).collect();
            median(&rates)
        };
        let mcycles = busy_cycles / 1e6;
        Self {
            setup_s: median(setup_s),
            jobs_per_s: rate(jobs, wall_s),
            sim_mcycles_per_s: rate(mcycles, wall_s),
            jobs_per_cpu_s: rate(jobs, cpu_s),
            sim_mcycles_per_cpu_s: rate(mcycles, cpu_s),
            peak_rss_mb: peak_rss_mb(),
        }
    }
}

/// The simulated outcome of one door call or replay. Simulated numbers
/// repeat exactly, so two repetitions of the same inputs must compare
/// equal, floats included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimStats {
    /// Jobs simulated.
    pub jobs: u64,
    /// Simulated span of the run, cycles.
    pub makespan_cycles: u64,
    /// Aggregate core-busy cycles (`ExecStats.cycles` summed over cores).
    pub busy_cycles: u64,
    /// Core-cycles spent waiting (dependency stalls; for a serving
    /// session, idle gaps between arrivals too).
    pub idle_cycles: u64,
    /// MACs executed against the peak of every core over the makespan.
    pub fmac_utilization: f64,
    /// Energy efficiency over the makespan, GFLOPS/W.
    pub gflops_per_w: f64,
    /// Chip energy (cores + uncore), nJ.
    pub chips_nj: f64,
    /// Inter-chip link energy, nJ.
    pub link_nj: f64,
    /// Inter-chip words moved.
    pub transferred_words: u64,
    /// Modeled link cycles charged.
    pub transfer_cycles: u64,
    /// Cycles children waited on transfers.
    pub transfer_stall_cycles: u64,
}

fn nr() -> usize {
    LacConfig::default().nr
}

impl SimStats {
    /// Summarize one chip-level run, priced by the chip energy model;
    /// `idle_cycles` is the run's summed per-core dependency stall.
    pub fn of_chip(stats: &ChipStats, idle_cycles: u64) -> Self {
        let energy = ChipEnergyModel::lap_default().summarize(stats);
        Self {
            jobs: stats.jobs(),
            makespan_cycles: stats.makespan_cycles,
            busy_cycles: stats.aggregate.cycles,
            idle_cycles,
            fmac_utilization: stats.utilization(nr()),
            gflops_per_w: energy.gflops_per_w,
            chips_nj: energy.total_nj,
            ..Self::default()
        }
    }

    /// Summarize one cluster-level run, priced by the cluster energy
    /// model (chips plus links); `idle_cycles` as for [`SimStats::of_chip`].
    pub fn of_cluster(stats: &ClusterStats, idle_cycles: u64) -> Self {
        let energy = ClusterEnergyModel::lap_default().summarize(stats);
        Self {
            jobs: stats.jobs(),
            makespan_cycles: stats.makespan_cycles,
            busy_cycles: stats.aggregate.cycles,
            idle_cycles,
            fmac_utilization: stats.utilization(nr()),
            gflops_per_w: energy.gflops_per_w,
            chips_nj: energy.chips_nj,
            link_nj: energy.link_nj,
            transferred_words: stats.transferred_words,
            transfer_cycles: stats.transfer_cycles,
            transfer_stall_cycles: stats.transfer_stall_cycles,
        }
    }
}

/// Operations attempted and failed, output-check time, and every problem
/// found. One operation is one solver chain: a fleet member or one
/// streamed request.
#[derive(Debug, Default)]
pub struct Tally {
    /// Chains attempted.
    pub attempted: u64,
    /// Chains that failed: a door `Err`, an output that does not match
    /// `linalg-ref`, or a repetition whose simulated statistics differ.
    pub failed: u64,
    /// Host seconds spent checking outputs (kept out of every
    /// end-to-end metric).
    pub check_s: f64,
    /// What went wrong: every failed check, and the first few failed
    /// chains.
    pub problems: Vec<String>,
}

impl Tally {
    /// Note a failed check that is not tied to one operation.
    pub fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }

    /// Count `chains` operations as failed, with the reason. Only the
    /// first few reasons are kept: a flood of one failure says no more.
    pub fn fail(&mut self, chains: u64, msg: String) {
        if self.failed < 20 {
            self.problems.push(msg);
        }
        self.failed += chains;
    }

    /// Record a repetition's simulated summary against the first one seen
    /// in `reference`: a mismatch fails all of the repetition's `chains`.
    pub fn same_sim<S: PartialEq + std::fmt::Debug + Clone>(
        &mut self,
        reference: &mut Option<S>,
        sim: &S,
        chains: u64,
        what: &str,
    ) {
        match reference {
            None => *reference = Some(sim.clone()),
            Some(r) if r == sim => {}
            Some(r) => self.fail(
                chains,
                format!(
                    "{what}: simulated statistics differ between repetitions: {r:?} vs {sim:?}"
                ),
            ),
        }
    }

    /// True when nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}
