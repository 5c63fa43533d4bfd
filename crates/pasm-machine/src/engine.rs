//! Host-time observability: which engine executed each PE instruction, and
//! why the batched engines handed control back to the event scheduler.
//!
//! These counters describe *how* the simulator ran, never *what* it
//! simulated, so they live outside [`RunResult`](crate::RunResult),
//! [`MachineConfig`](crate::MachineConfig) and every cache fingerprint. Read
//! them with [`Machine::engine_stats`](crate::Machine::engine_stats) after
//! a run.

/// Why a batched engine stopped (or refused to start) and returned to the
/// global event scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchExit {
    /// A stop instruction (mode switch, halt, barrier, Fetch-Unit command)
    /// or a barrier data word at the queue head.
    Stop = 0,
    /// A memory-mapped access (network registers, timer, SIMD space).
    Mmio = 1,
    /// The MC group is not in the lockstep engine's mode: a member is not
    /// waiting on (or holding a delivery from) its queue in SIMD mode, or
    /// the machine uses the decoupled release ablation.
    ModeOrPending = 2,
    /// A PE fault model (or a dropped block table) forces the interpreter.
    Fault = 3,
    /// The next group event is not earlier than the group's MC's next
    /// action, or would wake that MC from its Fetch-Unit wait.
    McHorizon = 4,
    /// The next event lies past `max_cycles`.
    CycleLimit = 5,
    /// The batch reached its event cap and yields, so interrupt checks stay
    /// responsive.
    BatchCap = 6,
    /// The group has nothing left to do: every member waits on an empty
    /// queue and the controller is idle or blocked.
    Drained = 7,
    /// The group runs ahead of the rest of the machine and its next event
    /// could ready a PE at that same cycle but earlier in the scheduler's
    /// order (a controller move onto an empty queue with no release
    /// overhead, a zero-cycle PE step): the scheduler must place that PE
    /// among the other components' events.
    SameCycle = 8,
}

/// Number of [`BatchExit`] reasons.
pub const N_EXITS: usize = 9;

/// Stable names of the exit reasons, indexable by `BatchExit as usize`.
pub const EXIT_NAMES: [&str; N_EXITS] = [
    "stop",
    "mmio",
    "mode_or_pending",
    "fault",
    "mc_horizon",
    "cycle_limit",
    "batch_cap",
    "drained",
    "same_cycle",
];

/// Per-engine instruction counts and batch exits of one machine.
///
/// The three instruction counts partition the PEs' executed instructions
/// (phase marks excluded, like [`PeTrace::instrs`](crate::PeTrace)): their
/// sum equals [`RunResult::pe_instrs`](crate::RunResult::pe_instrs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events the global scheduler dispatched (each one a batch or a single
    /// interpreted step).
    pub scheduler_events: u64,
    /// PE instructions run by the per-instruction interpreter.
    pub interp_instrs: u64,
    /// PE instructions run by the block-compiled MIMD fast path.
    pub block_instrs: u64,
    /// PE instructions run by the SIMD lockstep batch.
    pub lockstep_instrs: u64,
    /// Lockstep batches that executed at least one event.
    pub lockstep_batches: u64,
    /// MIMD block batches ended or refused, by [`BatchExit`] reason.
    pub block_exits: [u64; N_EXITS],
    /// Lockstep batches ended or refused, by [`BatchExit`] reason.
    pub lockstep_exits: [u64; N_EXITS],
}

impl EngineStats {
    /// Total PE instructions over all engines.
    pub fn pe_instrs(&self) -> u64 {
        self.interp_instrs + self.block_instrs + self.lockstep_instrs
    }

    /// Fraction of PE instructions the lockstep batch executed (0 when the
    /// run executed none).
    pub fn lockstep_share(&self) -> f64 {
        match self.pe_instrs() {
            0 => 0.0,
            n => self.lockstep_instrs as f64 / n as f64,
        }
    }

    /// Non-zero exit counters of one engine as `(reason, count)` rows.
    pub fn exit_rows(exits: &[u64; N_EXITS]) -> Vec<(&'static str, u64)> {
        EXIT_NAMES
            .iter()
            .zip(exits)
            .filter(|(_, &n)| n > 0)
            .map(|(&name, &n)| (name, n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_and_rows() {
        let mut s = EngineStats {
            interp_instrs: 10,
            block_instrs: 30,
            lockstep_instrs: 60,
            ..EngineStats::default()
        };
        assert_eq!(s.pe_instrs(), 100);
        assert!((s.lockstep_share() - 0.6).abs() < 1e-12);
        s.lockstep_exits[BatchExit::McHorizon as usize] = 3;
        assert_eq!(
            EngineStats::exit_rows(&s.lockstep_exits),
            vec![("mc_horizon", 3)]
        );
        assert_eq!(EngineStats::default().lockstep_share(), 0.0);
    }
}
