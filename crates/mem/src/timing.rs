//! Timing for block accesses: queued DRAM channels and LLC banks.
//!
//! Parameters follow Table 2 of the paper: 50 ns DRAM with 4 × 25.6 GBps
//! DDR4 channels, a 6-cycle 16-bank NUCA LLC, and on-chip traversal
//! overheads calibrated so that the *average end-to-end memory latency seen
//! by an integrated controller is ≈90 ns* (the figure §5.1 quotes when
//! sizing the stream buffers via Little's law).

use sabre_sim::{FifoServer, Time};

use crate::block::{BlockAddr, BLOCK_BYTES};

/// Which level services a block access. The assembly layer decides this by
/// probing the [`crate::llc::Llc`] presence model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// Hit in the last-level cache.
    Llc,
    /// Miss: serviced by a DRAM channel.
    Dram,
}

/// Timing parameters for one node's memory system.
#[derive(Debug, Clone)]
pub struct MemTimingConfig {
    /// DRAM array access latency (Table 2: 50 ns).
    pub dram_latency: Time,
    /// On-chip traversal + directory overhead added to a DRAM access, so
    /// that unloaded end-to-end DRAM reads land at ≈90 ns.
    pub dram_overhead: Time,
    /// End-to-end LLC hit latency from an edge controller (6-cycle bank
    /// access plus mesh traversal).
    pub llc_latency: Time,
    /// Number of DDR channels (Table 2: 4).
    pub channels: usize,
    /// Per-channel bandwidth in GB/s (Table 2: 25.6).
    pub channel_gbps: f64,
    /// Number of LLC banks (Table 2: 16, one per tile).
    pub llc_banks: usize,
    /// Per-bank service bandwidth in GB/s.
    pub llc_bank_gbps: f64,
}

impl Default for MemTimingConfig {
    fn default() -> Self {
        MemTimingConfig {
            dram_latency: Time::from_ns(50),
            dram_overhead: Time::from_ns(40),
            llc_latency: Time::from_ns(12),
            channels: 4,
            channel_gbps: 25.6,
            llc_banks: 16,
            llc_bank_gbps: 32.0,
        }
    }
}

impl MemTimingConfig {
    /// Unloaded end-to-end latency of one access at `level`.
    pub fn unloaded_latency(&self, level: ServiceLevel) -> Time {
        match level {
            ServiceLevel::Llc => self.llc_latency,
            ServiceLevel::Dram => self.dram_latency + self.dram_overhead,
        }
    }
}

/// One node's memory timing: a bank of queued servers per level.
///
/// # Example
///
/// ```
/// use sabre_mem::{BlockAddr, MemSystem, MemTimingConfig, ServiceLevel};
/// use sabre_sim::Time;
///
/// let mut ms = MemSystem::new(MemTimingConfig::default());
/// let done = ms.access(Time::ZERO, BlockAddr::from_index(0), ServiceLevel::Dram);
/// assert_eq!(done, Time::from_ns_f64(92.5)); // 2.5 ns occupancy + 90 ns latency
/// ```
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemTimingConfig,
    channels: Vec<FifoServer>,
    banks: Vec<FifoServer>,
    dram_accesses: u64,
    llc_accesses: u64,
}

impl MemSystem {
    /// Creates a memory system from its timing configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or banks.
    pub fn new(cfg: MemTimingConfig) -> Self {
        assert!(cfg.channels > 0, "need at least one DRAM channel");
        assert!(cfg.llc_banks > 0, "need at least one LLC bank");
        MemSystem {
            channels: vec![FifoServer::new(); cfg.channels],
            banks: vec![FifoServer::new(); cfg.llc_banks],
            cfg,
            dram_accesses: 0,
            llc_accesses: 0,
        }
    }

    /// The timing configuration.
    pub fn config(&self) -> &MemTimingConfig {
        &self.cfg
    }

    /// Services one block access arriving at `now`; returns its completion
    /// time (queueing + occupancy + latency). Blocks interleave across
    /// channels/banks by address, as in the modeled chip.
    pub fn access(&mut self, now: Time, block: BlockAddr, level: ServiceLevel) -> Time {
        match level {
            ServiceLevel::Dram => {
                self.dram_accesses += 1;
                let ch = (block.index() % self.channels.len() as u64) as usize;
                let occupancy =
                    sabre_sim::time::transfer_time(BLOCK_BYTES as u64, self.cfg.channel_gbps);
                let start = self.channels[ch].admit(now, occupancy);
                start + occupancy + self.cfg.dram_latency + self.cfg.dram_overhead
            }
            ServiceLevel::Llc => {
                self.llc_accesses += 1;
                let bank = (block.index() % self.banks.len() as u64) as usize;
                let occupancy =
                    sabre_sim::time::transfer_time(BLOCK_BYTES as u64, self.cfg.llc_bank_gbps);
                let start = self.banks[bank].admit(now, occupancy);
                start + occupancy + self.cfg.llc_latency
            }
        }
    }

    /// (DRAM accesses, LLC accesses) serviced so far.
    pub fn access_counts(&self) -> (u64, u64) {
        (self.dram_accesses, self.llc_accesses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latencies_match_table2() {
        let cfg = MemTimingConfig::default();
        assert_eq!(cfg.unloaded_latency(ServiceLevel::Dram), Time::from_ns(90));
        assert_eq!(cfg.unloaded_latency(ServiceLevel::Llc), Time::from_ns(12));
    }

    #[test]
    fn dram_queueing_appears_under_load() {
        let mut ms = MemSystem::new(MemTimingConfig::default());
        // 8 accesses to the SAME channel (stride = #channels).
        let stride = ms.config().channels as u64;
        let mut last = Time::ZERO;
        for i in 0..8 {
            last = ms.access(
                Time::ZERO,
                BlockAddr::from_index(i * stride),
                ServiceLevel::Dram,
            );
        }
        // The 8th starts after 7 × 2.5 ns of queueing.
        assert_eq!(last, Time::from_ns_f64(7.0 * 2.5 + 2.5 + 90.0));
    }

    #[test]
    fn channel_interleaving_gives_mlp() {
        let mut ms = MemSystem::new(MemTimingConfig::default());
        // 4 accesses to 4 different channels: no queueing at all.
        let done: Vec<Time> = (0..4)
            .map(|i| ms.access(Time::ZERO, BlockAddr::from_index(i), ServiceLevel::Dram))
            .collect();
        for d in done {
            assert_eq!(d, Time::from_ns_f64(92.5));
        }
    }

    #[test]
    fn aggregate_dram_bandwidth_is_respected() {
        // Stream 1 MB through DRAM; drain time ≈ 1 MB / 102.4 GBps ≈ 9.77 us.
        let mut ms = MemSystem::new(MemTimingConfig::default());
        let blocks = 1_048_576 / BLOCK_BYTES as u64;
        let mut last = Time::ZERO;
        for i in 0..blocks {
            last = last.max(ms.access(Time::ZERO, BlockAddr::from_index(i), ServiceLevel::Dram));
        }
        let expected_us = 1_048_576.0 / (4.0 * 25.6) / 1000.0;
        assert!(
            (last.as_us() - expected_us).abs() < 0.2,
            "drained in {last}, expected ≈{expected_us} us"
        );
    }

    #[test]
    fn llc_faster_than_dram() {
        let mut ms = MemSystem::new(MemTimingConfig::default());
        let l = ms.access(Time::ZERO, BlockAddr::from_index(0), ServiceLevel::Llc);
        let d = ms.access(Time::ZERO, BlockAddr::from_index(1), ServiceLevel::Dram);
        assert!(l < d);
        assert_eq!(ms.access_counts(), (1, 1));
    }
}
