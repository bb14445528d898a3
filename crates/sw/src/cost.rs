//! The calibrated CPU cost model.
//!
//! The paper's argument is about *software* overhead on the critical path,
//! so the simulation needs credible CPU-side costs for the software
//! atomicity mechanisms. We charge them analytically, in cycles, on the
//! Table 2 core (2 GHz, 3-wide OoO):
//!
//! | kernel | rate | source |
//! |---|---|---|
//! | per-CL validate+strip | ≈2 B/cycle | Fig. 1: stripping 8 KB ≈ 2 µs — the paper hand-tuned this kernel for maximum MLP |
//! | CRC64 | 12 cycles/B | §2.1: "about a dozen CPU cycles per checksummed byte" |
//! | streaming read, L1 | 16 B/cycle | two 8 B loads/cycle |
//! | streaming read, LLC | 6 B/cycle | ≈12 GB/s single-thread |
//! | streaming read, DRAM | 2.6 B/cycle | ≈5.2 GB/s single-thread with MLP |
//!
//! The rates are *calibration constants*, not claims of cycle accuracy;
//! EXPERIMENTS.md records how the resulting latency breakdowns compare to
//! the paper's.

use sabre_sim::{Freq, Time};

/// Where the bytes a core is consuming currently live. Determines the
/// streaming-read rate (the Fig. 9a "application" component differs between
/// baseline and SABRes precisely because of this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataSource {
    /// Data already in the L1d (e.g. just written by the strip kernel).
    L1,
    /// Data in the LLC (e.g. just DMA-ed in by the NI).
    Llc,
    /// Data in DRAM.
    Memory,
}

/// The per-core cost model.
#[derive(Debug, Clone)]
pub struct CpuCostModel {
    /// Core clock (Table 2: 2 GHz).
    pub clock: Freq,
    /// Per-CL validate+strip throughput, bytes of *wire image* per cycle.
    pub strip_bytes_per_cycle: f64,
    /// CRC64 cost in cycles per byte.
    pub crc_cycles_per_byte: f64,
    /// Streaming-read throughput from L1, bytes per cycle.
    pub read_l1_bytes_per_cycle: f64,
    /// Streaming-read throughput from LLC, bytes per cycle.
    pub read_llc_bytes_per_cycle: f64,
    /// Streaming-read throughput from DRAM, bytes per cycle.
    pub read_mem_bytes_per_cycle: f64,
}

impl Default for CpuCostModel {
    fn default() -> Self {
        CpuCostModel {
            clock: Freq::ghz(2.0),
            strip_bytes_per_cycle: 2.0,
            crc_cycles_per_byte: 12.0,
            read_l1_bytes_per_cycle: 16.0,
            read_llc_bytes_per_cycle: 6.0,
            read_mem_bytes_per_cycle: 2.6,
        }
    }
}

impl CpuCostModel {
    /// Duration of `n` whole cycles.
    pub fn cycles(&self, n: u64) -> Time {
        self.clock.cycles(n)
    }

    /// Time to validate + strip a per-CL image of `wire_bytes` (the Fig. 1
    /// "version stripping" component).
    pub fn strip_time(&self, wire_bytes: usize) -> Time {
        self.clock
            .cycles_f64(wire_bytes as f64 / self.strip_bytes_per_cycle)
    }

    /// Time to CRC64 `bytes` of payload (Pilaf readers and writers).
    pub fn crc_time(&self, bytes: usize) -> Time {
        self.clock
            .cycles_f64(bytes as f64 * self.crc_cycles_per_byte)
    }

    /// Time for the application to stream-read `bytes` from `src`.
    pub fn read_time(&self, bytes: usize, src: DataSource) -> Time {
        let rate = match src {
            DataSource::L1 => self.read_l1_bytes_per_cycle,
            DataSource::Llc => self.read_llc_bytes_per_cycle,
            DataSource::Memory => self.read_mem_bytes_per_cycle,
        };
        self.clock.cycles_f64(bytes as f64 / rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strip_rate_matches_fig1_scale() {
        let m = CpuCostModel::default();
        // 8 KB payload = 9408 wire bytes → ≈2.35 µs at 2 B/cycle @ 2 GHz.
        let t = m.strip_time(9408);
        assert!((t.as_us() - 2.352).abs() < 0.01, "{t}");
        // Small objects are cheap: 192 B ≈ 48 ns.
        assert_eq!(m.strip_time(192), Time::from_ns(48));
    }

    #[test]
    fn crc_is_an_order_of_magnitude_slower() {
        let m = CpuCostModel::default();
        // 8 KB at 12 cycles/B @ 2 GHz ≈ 49 µs — the §2.1 "tens of thousands
        // of CPU cycles" figure.
        let t = m.crc_time(8192);
        assert!((t.as_us() - 49.152).abs() < 0.01, "{t}");
        assert!(m.crc_time(8192) > m.strip_time(9408) * 10);
    }

    #[test]
    fn read_rates_ordered_by_locality() {
        let m = CpuCostModel::default();
        let l1 = m.read_time(4096, DataSource::L1);
        let llc = m.read_time(4096, DataSource::Llc);
        let mem = m.read_time(4096, DataSource::Memory);
        assert!(l1 < llc && llc < mem);
    }

    #[test]
    fn cycles_helper() {
        let m = CpuCostModel::default();
        assert_eq!(m.cycles(10), Time::from_ns(5));
    }
}
