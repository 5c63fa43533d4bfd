//! The SIMD lockstep batch: an MC group whose PEs all wait on their
//! Fetch Unit in SIMD mode runs as a local event loop, without returning
//! to the global scheduler between broadcast instructions.
//!
//! Why this is exact (see also `docs/TIMING.md`, "Lockstep batch"):
//!
//! * **Group independence.** Outside memory-mapped accesses, a SIMD PE
//!   touches only its own CPU and memory, and the group's Fetch Unit is
//!   touched only by the group's PEs, its controller and its MC. The batch
//!   leaves at any MMIO access (before the instruction changes anything),
//!   so no other component can observe or influence the group while it
//!   runs ahead of global time.
//! * **MC horizon.** The MC is the one outside party that touches the Fetch
//!   Unit. PE events run up to and including the MC's next action time (PEs
//!   win ties), controller moves only strictly before it (the MC wins that
//!   tie), and a move that would wake an MC waiting on the controller is
//!   left to the scheduler.
//! * **Causality.** Under the lockstep rule nothing a step creates is due
//!   before the step itself: a release lands at or after the last request,
//!   a controller move at or after the release that made room. So the
//!   group's remaining events are never earlier than where the batch
//!   stopped, and other groups' earlier events interleave with them exactly
//!   as on the interpreter. (The decoupled ablation breaks this, so it
//!   never batches.)
//! * **Equal cycles.** Due *at* the step's own cycle is still possible: a
//!   controller move onto an empty queue releases waiting PEs at its own
//!   cycle when releases cost nothing, and so can a zero-cycle PE step (a
//!   phase mark). Those PEs come before their cause in the scheduler's
//!   order, so on the interpreter they run after every event the rest of
//!   the machine had keyed before the cause. While the batch runs ahead of
//!   the rest of the machine (its event keyed after the earliest outside
//!   event) it leaves before such a step (`same_cycle`), so the scheduler
//!   places the new PE events as the interpreter would.
//! * **Same order, same latch.** The local loop picks events in the global
//!   `(time, class, index)` order and re-evaluates the controller's next move
//!   between events, exactly as a scan of all components would, so the
//!   `fuc_blocked` latch and `space_available_at` evolve identically.
//! * **Same charges.** Each delivered instruction is charged as
//!   [`Machine::interpret_pe`] charges a SIMD delivery to a fault-free PE:
//!   fetch wait at Fetch-Unit SRAM timing, operand wait at PE DRAM timing,
//!   then a new request through the shared release rule.

use super::{
    exec_timed, BatchExit, Bucket, Effect, EntryKind, Instr, Machine, MainOnlyBus, McState, PeMode,
    PeState, ReleaseMode, StepOutcome, FAST_BATCH,
};

impl Machine {
    /// Run MC group `m` as a lockstep batch if every PE of the group that
    /// can still act is a fault-free SIMD PE waiting on (or holding a
    /// delivery from) the group's queue. Dead, idle and halted PEs are
    /// inert: nothing but the group's own MC can change them.
    ///
    /// Returns `true` if at least one event ran. The batch's first event is
    /// the one the scheduler just popped: it is the global minimum, so it is
    /// also the group's.
    pub(super) fn try_lockstep(&mut self, m: usize) -> bool {
        let (exit, events) = match self.lockstep_refusal(m) {
            Some(why) => (why, 0),
            None => self.lockstep_batch(m),
        };
        self.engine.lockstep_exits[exit as usize] += 1;
        if events > 0 {
            self.engine.lockstep_batches += 1;
            self.group_dirty = true;
        }
        events > 0
    }

    /// Why group `m` cannot run as a lockstep batch, if it cannot.
    ///
    /// The decoupled release ablation never batches: it retires entries at
    /// the controller's last move time and serves each PE at
    /// `max(entry ready, request)`, so a step can create events *earlier*
    /// than itself. A group running ahead would then hand the scheduler
    /// events that, on the interpreter, only appear after other groups'
    /// later events — independence does not survive that.
    fn lockstep_refusal(&self, m: usize) -> Option<BatchExit> {
        if self.cfg.release_mode != ReleaseMode::Lockstep {
            return Some(BatchExit::ModeOrPending);
        }
        for pe in (m..self.cfg.n_pes).step_by(self.cfg.n_mcs) {
            let p = &self.pes[pe];
            let simd_member = p.mode == PeMode::Simd
                && match p.state {
                    PeState::AwaitSimd { .. } => true,
                    PeState::Ready => p.pending.is_some(),
                    _ => false,
                };
            match p.state {
                PeState::Idle | PeState::Halted => {}
                _ if !simd_member => return Some(BatchExit::ModeOrPending),
                _ if self.pe_faults[pe].is_some() => return Some(BatchExit::Fault),
                _ => {}
            }
        }
        None
    }

    /// The local event loop. Returns why it stopped and how many events it
    /// ran; on return the group is in a state the interpreter passes
    /// through, so the scheduler can take over from any exit.
    fn lockstep_batch(&mut self, m: usize) -> (BatchExit, u32) {
        let (n_pes, n_mcs) = (self.cfg.n_pes, self.cfg.n_mcs);
        let max_cycles = self.cfg.max_cycles;
        let (mc_at, mc_awaits_fuc) = match self.mcs[m].state {
            McState::Ready => (Some(self.mcs[m].ready_at), false),
            McState::AwaitFuc { .. } => (None, true),
            McState::Idle | McState::Halted => (None, false),
        };
        let fuc_slot = n_pes + n_mcs + m;
        let mut events = 0u32;
        loop {
            if events >= FAST_BATCH {
                return (BatchExit::BatchCap, events);
            }
            let fu = &mut self.fus[m];
            if fu.queue.front().is_some_and(|e| e.kind == EntryKind::Data) {
                return (BatchExit::Stop, events);
            }
            let fuc_at = fu.next_move_completion(self.cfg.fuc_cycles_per_word);
            // The earliest ready time among the PEs, and the group bits of
            // every PE ready then (bit j is PE `j * n_mcs + m`).
            let mut next: Option<(u64, u16)> = None;
            for (j, pe) in (m..n_pes).step_by(n_mcs).enumerate() {
                let p = &self.pes[pe];
                if p.state != PeState::Ready {
                    continue;
                }
                next = match next {
                    Some((t, bits)) if t < p.ready_at => Some((t, bits)),
                    Some((t, bits)) if t == p.ready_at => Some((t, bits | 1 << j)),
                    _ => Some((p.ready_at, 1 << j)),
                };
            }
            match (next, fuc_at) {
                // PEs win ties against the controller.
                (Some((t, round)), f) if f.is_none_or(|f| t <= f) => {
                    if t > max_cycles {
                        return (BatchExit::CycleLimit, events);
                    }
                    if mc_at.is_some_and(|h| t > h) {
                        return (BatchExit::McHorizon, events);
                    }
                    // One round: every PE ready at `t`, in ascending order —
                    // the order the scheduler takes them in, because nothing
                    // else can become due before them. Only a release (or a
                    // drained entry) changes the Fetch Unit or readies a PE,
                    // so a release ends the round and the next pick
                    // re-latches the controller and re-sorts the PEs.
                    let head_enabled = self.fus[m]
                        .queue
                        .front()
                        .map(|e| e.mask & self.live_mask[m]);
                    let mut bits = round;
                    while bits != 0 {
                        let pe = bits.trailing_zeros() as usize * n_mcs + m;
                        bits &= bits - 1;
                        if events >= FAST_BATCH {
                            return (BatchExit::BatchCap, events);
                        }
                        if let Err(exit) = self.lockstep_step(pe, m) {
                            if exit == BatchExit::Mmio {
                                self.hint_round(pe, t);
                            }
                            return (exit, events);
                        }
                        events += 1;
                        // The lockstep rule releases only when every PE the
                        // head enables is waiting: while one of them is
                        // still due in this round (or the queue is empty),
                        // the check would find nothing to do.
                        if head_enabled.is_none_or(|en| en & bits != 0) {
                            continue;
                        }
                        if self.check_release_lockstep(m) {
                            break;
                        }
                    }
                }
                (_, Some(t)) => {
                    if t > max_cycles {
                        return (BatchExit::CycleLimit, events);
                    }
                    let wakes_mc = mc_awaits_fuc && self.fus[m].pending.len() == 1;
                    if wakes_mc || mc_at.is_some_and(|h| t >= h) {
                        return (BatchExit::McHorizon, events);
                    }
                    // A move onto an empty queue releases waiting PEs at this
                    // very cycle when releases cost nothing: they come before
                    // the controller in the scheduler's order.
                    let same_cycle_release =
                        self.fus[m].queue.is_empty() && self.cfg.simd_release_cycles == 0;
                    if same_cycle_release && self.runs_ahead(m, t, fuc_slot) {
                        return (BatchExit::SameCycle, events);
                    }
                    self.fus[m].do_move(t);
                    // Behind an existing head the move changes nothing the
                    // lockstep rule looks at, and the group was checked
                    // after its last step.
                    if self.fus[m].queue.len() == 1 {
                        self.check_release_lockstep(m);
                    }
                    events += 1;
                }
                (None, None) => return (BatchExit::Drained, events),
                (Some(_), None) => unreachable!("guard accepts a PE when the controller is idle"),
            }
        }
    }

    /// Whether group `m`'s event keyed `(t, slot)` comes after the earliest
    /// event outside the group (its MC included): the batch then runs ahead
    /// of global order, which is exact only if the event readies nothing
    /// keyed before itself (module docs). Rarely asked, so not cached.
    fn runs_ahead(&self, m: usize, t: u64, slot: usize) -> bool {
        let (n_pes, n_mcs) = (self.cfg.n_pes, self.cfg.n_mcs);
        let fuc_slot = n_pes + n_mcs + m;
        self.ready
            .first_outside(|s| s == fuc_slot || (s < n_pes && s % n_mcs == m))
            .is_some_and(|first| (t, slot) > first)
    }

    /// PE `first` hit an MMIO access in the round at `t`: the rest of the
    /// round holds the same broadcast instruction, so send those PEs to the
    /// interpreter too instead of retrying a batch per PE. Only a hint — the
    /// interpreter is exact for any instruction.
    fn hint_round(&mut self, first: usize, t: u64) {
        let n_mcs = self.cfg.n_mcs;
        let meta = self.pes[first].pending;
        for pe in (first + n_mcs..self.cfg.n_pes).step_by(n_mcs) {
            let p = &mut self.pes[pe];
            if p.state == PeState::Ready && p.ready_at == t && p.pending == meta {
                p.interpret_next = true;
            }
        }
    }

    /// Execute PE `i`'s delivered instruction and post its next request,
    /// charging it as [`Machine::interpret_pe`] charges a SIMD delivery to a
    /// fault-free PE; the caller applies the release rule. A stop
    /// instruction, an MMIO access, or a zero-cycle step while the group runs
    /// ahead leaves everything unchanged.
    fn lockstep_step(&mut self, i: usize, m: usize) -> Result<(), BatchExit> {
        if self.pes[i].interpret_next {
            return Err(BatchExit::Mmio);
        }
        let delivered = self.pes[i]
            .pending
            .expect("a ready SIMD PE holds a delivery");
        let meta = &self.mcs[m].simd.meta()[delivered as usize];
        if meta.stop {
            return Err(BatchExit::Stop);
        }
        let now = self.pes[i].ready_at;
        // No cycle floor (a phase mark): the request, and a release it
        // completes, can land at this very cycle.
        if meta.split.static_cycles == 0 && self.runs_ahead(m, now, i) {
            return Err(BatchExit::SameCycle);
        }
        let instr = meta.instr;
        let pe = &mut self.pes[i];
        let bus = &mut MainOnlyBus(&mut pe.mem);
        let r = match exec_timed(&mut pe.cpu, bus, &instr, Some(&meta.split)) {
            StepOutcome::Done(r) => r,
            StepOutcome::Blocked(_) => {
                pe.interpret_next = true;
                return Err(BatchExit::Mmio);
            }
        };
        // Instruction words come from the queue (SRAM); operands from DRAM.
        let fetch_wait = self.cfg.fu_sram.burst_delay(now, r.fetch_words);
        let data_wait = self
            .cfg
            .pe_dram
            .burst_delay(now + fetch_wait, r.data_accesses);
        let duration = r.cycles as u64 + fetch_wait + data_wait;
        let new_now = now + duration;
        let t = &mut pe.trace;
        if !matches!(instr, Instr::Mark { .. }) {
            t.instrs += 1;
            self.engine.lockstep_instrs += 1;
        }
        t.busy_cycles += duration;
        t.fetch_wait_cycles += fetch_wait;
        t.data_wait_cycles += data_wait;
        if r.mulu_cycles > 0 {
            t.mul_count += 1;
            t.mul_cycles += r.mulu_cycles as u64;
        }
        let mut acc = self.acct.as_mut().map(|a| &mut a.pe[i]);
        if let Some(a) = acc.as_deref_mut() {
            // Same value as `variance_cycles(&instr, r.mulu_cycles)` (see
            // `InstrMeta::variance_min`).
            let var = r.mulu_cycles.saturating_sub(meta.variance_min) as u64;
            a.charge(Bucket::Compute, r.cycles as u64 - var);
            a.charge(Bucket::MultiplyVariance, var);
            a.charge(Bucket::Fetch, fetch_wait);
            a.charge(Bucket::MemoryWait, data_wait);
            a.record_instr(&instr, duration);
        }
        match r.effect {
            Effect::None => {}
            Effect::Mark { begin, phase } => {
                pe.trace.mark(begin, phase, new_now);
                if let Some(a) = acc {
                    a.mark(begin, phase, new_now);
                }
            }
            other => unreachable!("lockstep batch executed effectful {other:?}"),
        }
        pe.ready_at = new_now;
        pe.pending = None;
        pe.state = PeState::AwaitSimd { since: new_now };
        Ok(())
    }
}
