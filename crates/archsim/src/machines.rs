use serde::{Deserialize, Serialize};

/// A multicore CPU model, mirroring one row of Table 2 plus the
/// calibration constants the cost model needs.
#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct Machine {
    /// Short name used throughout the paper ("Skylake", "Milan B", ...).
    pub name: String,
    /// Marketing CPU name.
    pub cpu: String,
    /// Instruction set.
    pub isa: String,
    /// Microarchitecture.
    pub microarch: String,
    /// Socket count.
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Sustained all-core frequency in GHz (midpoint of Table 2's range).
    pub freq_ghz: f64,
    /// L1 data cache per core, KiB.
    pub l1d_kib: usize,
    /// L2 cache per core, KiB.
    pub l2_kib: usize,
    /// L3 cache per socket, MiB.
    pub l3_mib_per_socket: usize,
    /// Nominal DRAM bandwidth, GB/s (whole machine).
    pub mem_bw_gbs: f64,
    /// Threads used in the paper's experiments (artifact file names).
    pub threads: usize,
    /// Sustained SpMV flops per cycle per core (calibration).
    pub flops_per_cycle: f64,
    /// Per-core sustainable DRAM bandwidth, GB/s (MLP/latency limit;
    /// notably low on the ARM parts, matching the paper's observation
    /// of 20-30 Gflop/s medians there).
    pub per_core_bw_gbs: f64,
    /// Achievable fraction of nominal DRAM bandwidth (the paper
    /// measures 77 % on Milan B with the dense reference).
    pub bw_efficiency: f64,
    /// Relative cost of a remote-socket DRAM access vs a local one
    /// under the first-touch policy (1.0 on single-socket machines).
    pub numa_penalty: f64,
}

impl Machine {
    /// Total L3 capacity in bytes.
    pub fn l3_total_bytes(&self) -> usize {
        self.sockets * self.l3_mib_per_socket * 1024 * 1024
    }

    /// Per-core flop rate in Gflop/s.
    pub fn core_gflops(&self) -> f64 {
        self.freq_ghz * self.flops_per_cycle
    }

    /// Effective aggregate DRAM bandwidth with `t` active threads,
    /// GB/s: limited both by the memory system and by per-core
    /// concurrency.
    pub fn effective_bw_gbs(&self, t: usize) -> f64 {
        (self.mem_bw_gbs * self.bw_efficiency).min(t as f64 * self.per_core_bw_gbs)
    }
}

macro_rules! machine {
    ($name:expr, $cpu:expr, $isa:expr, $uarch:expr, $sockets:expr, $cps:expr,
     $freq:expr, $l1:expr, $l2:expr, $l3:expr, $bw:expr, $threads:expr,
     $fpc:expr, $pcbw:expr, $eff:expr, $numa:expr) => {
        Machine {
            name: $name.to_string(),
            cpu: $cpu.to_string(),
            isa: $isa.to_string(),
            microarch: $uarch.to_string(),
            sockets: $sockets,
            cores_per_socket: $cps,
            freq_ghz: $freq,
            l1d_kib: $l1,
            l2_kib: $l2,
            l3_mib_per_socket: $l3,
            mem_bw_gbs: $bw,
            threads: $threads,
            flops_per_cycle: $fpc,
            per_core_bw_gbs: $pcbw,
            bw_efficiency: $eff,
            numa_penalty: $numa,
        }
    };
}

/// The eight machines of Table 2, with calibration constants.
pub fn machines() -> Vec<Machine> {
    vec![
        machine!(
            "Skylake",
            "Intel Xeon Gold 6130",
            "x86-64",
            "Skylake",
            2,
            16,
            2.4,
            32,
            1024,
            22,
            256.0,
            32,
            2.0,
            9.0,
            0.75,
            2.0
        ),
        machine!(
            "Ice Lake",
            "Intel Xeon Platinum 8360Y",
            "x86-64",
            "Ice Lake",
            2,
            36,
            2.8,
            48,
            1280,
            54,
            409.6,
            72,
            2.0,
            10.0,
            0.77,
            1.9
        ),
        machine!(
            "Naples",
            "AMD Epyc 7601",
            "x86-64",
            "Zen",
            2,
            32,
            2.9,
            32,
            512,
            64,
            342.0,
            64,
            2.0,
            8.0,
            0.70,
            2.4
        ),
        machine!(
            "Rome",
            "AMD Epyc 7302P",
            "x86-64",
            "Zen 2",
            1,
            16,
            2.8,
            32,
            512,
            16,
            204.8,
            16,
            2.0,
            10.0,
            0.75,
            1.0
        ),
        machine!(
            "Milan A",
            "AMD Epyc 7413",
            "x86-64",
            "Zen 3",
            2,
            24,
            3.0,
            32,
            512,
            128,
            409.6,
            48,
            2.0,
            10.0,
            0.77,
            2.2
        ),
        machine!(
            "Milan B",
            "AMD Epyc 7763",
            "x86-64",
            "Zen 3",
            2,
            64,
            2.8,
            32,
            512,
            256,
            409.6,
            128,
            2.0,
            8.0,
            0.77,
            2.2
        ),
        machine!(
            "TX2",
            "Cavium TX2 CN9980",
            "ARMv8.1",
            "Vulcan",
            2,
            32,
            2.25,
            32,
            256,
            32,
            342.0,
            64,
            0.8,
            2.5,
            0.60,
            2.5
        ),
        machine!(
            "Hi1620",
            "HiSilicon Kunpeng 920-6426",
            "ARMv8.2",
            "TaiShan v110",
            2,
            64,
            2.6,
            64,
            512,
            64,
            342.0,
            128,
            0.8,
            2.0,
            0.60,
            2.5
        ),
    ]
}

/// Look up a machine by its short name.
pub fn machine_by_name(name: &str) -> Option<Machine> {
    machines().into_iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_machines_matching_table2() {
        let ms = machines();
        assert_eq!(ms.len(), 8);
        let names: Vec<&str> = ms.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["Skylake", "Ice Lake", "Naples", "Rome", "Milan A", "Milan B", "TX2", "Hi1620"]
        );
    }

    #[test]
    fn core_counts_match_table2() {
        let expect = [
            ("Skylake", 32),
            ("Ice Lake", 72),
            ("Naples", 64),
            ("Rome", 16),
            ("Milan A", 48),
            ("Milan B", 128),
            ("TX2", 64),
            ("Hi1620", 128),
        ];
        for (name, cores) in expect {
            let m = machine_by_name(name).unwrap();
            assert_eq!(m.sockets * m.cores_per_socket, cores, "{name}");
            assert_eq!(m.threads, cores, "{name}: paper uses all cores");
        }
    }

    #[test]
    fn milan_b_has_largest_l3() {
        let ms = machines();
        let max = ms.iter().max_by_key(|m| m.l3_total_bytes()).unwrap();
        assert_eq!(max.name, "Milan B");
        assert_eq!(max.l3_total_bytes(), 512 * 1024 * 1024);
    }

    #[test]
    fn effective_bandwidth_saturates() {
        let m = machine_by_name("Milan B").unwrap();
        // One thread: limited by the per-core cap.
        assert!((m.effective_bw_gbs(1) - 8.0).abs() < 1e-9);
        // All threads: limited by the memory system.
        let full = m.effective_bw_gbs(128);
        assert!((full - 409.6 * 0.77).abs() < 1e-9);
        // The dense reference of §4.2 measures ~317 GB/s ≈ 77 % of peak.
        assert!((full - 315.4).abs() < 1.0);
    }

    #[test]
    fn arm_parts_have_low_per_core_bandwidth() {
        let tx2 = machine_by_name("TX2").unwrap();
        let skl = machine_by_name("Skylake").unwrap();
        assert!(tx2.per_core_bw_gbs < skl.per_core_bw_gbs / 2.0);
    }

    #[test]
    fn lookup_unknown_machine() {
        assert!(machine_by_name("M1 Max").is_none());
    }
}
