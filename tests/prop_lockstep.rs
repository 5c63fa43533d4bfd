//! Seeded SIMD-stream differential test for the lockstep batch.
//!
//! Each seed generates a small machine and a random SIMD workload: MC
//! programs that broadcast random blocks under random masks (full, partial
//! and zero), switch their PEs between SIMD and MIMD, feed MIMD barriers
//! with data words, and exchange bytes over the network; PE programs whose
//! MIMD phases mix arithmetic, timer reads and barrier reads. Blocks carry
//! `MULU`/`MULS`/`DIVU`/`DIVS` over per-PE random operands, so the lockstep
//! barrier pays a different maximum on every instruction, and queues are
//! small so the Fetch-Unit controller stalls on space. Some seeds use the
//! decoupled release rule or inject a dead or slow PE.
//!
//! Every workload runs twice — fast path on, and forced onto the
//! per-instruction interpreter — and the full [`RunResult`] (or the error),
//! every PE's registers and its written memory must be equal. The run is
//! seeded (SplitMix64) and bounded in time, with a floor of
//! [`MIN_SEEDS`] seeds.

use pasm::{FaultPlan, Machine, MachineConfig, PeFault, ReleaseMode, RunResult};
use pasm_isa::{AddrReg, DataReg, Ea, Instr, Program, ProgramBuilder, ShiftCount, ShiftKind, Size};
use pasm_machine::{drr_ea, dtr_ea, status_ea, EngineStats};
use pasm_util::Rng;
use std::time::{Duration, Instant};

/// Seeds every run checks, however slow the host.
const MIN_SEEDS: u64 = 200;
/// Extra seeds run while the time budget lasts.
const MAX_SEEDS: u64 = 2_000;
const BUDGET: Duration = Duration::from_secs(4);

/// Where each PE's operand stream starts and where its stores go.
const READ_BASE: u32 = 0x1000;
const WRITE_BASE: u32 = 0x6000;
const WRITE_WORDS: u32 = 0x800;

const DATA: [DataReg; 6] = [
    DataReg::D0,
    DataReg::D1,
    DataReg::D2,
    DataReg::D3,
    DataReg::D4,
    DataReg::D5,
];

fn data_reg(rng: &mut Rng) -> DataReg {
    DATA[rng.gen_range(DATA.len())]
}

fn size(rng: &mut Rng) -> Size {
    if rng.gen_range(2) == 0 {
        Size::Word
    } else {
        Size::Long
    }
}

/// One random instruction a PE can execute in either mode: arithmetic with
/// data-dependent timing, operand reads and stores in main memory, and (if
/// `mmio`) reads of the timer and the network status register.
fn random_instr(rng: &mut Rng, mmio: bool) -> Instr {
    let d = data_reg(rng);
    let s = Ea::D(data_reg(rng));
    match rng.gen_range(if mmio { 20 } else { 18 }) {
        0 => Instr::Moveq {
            value: rng.gen_u16() as i8,
            dst: d,
        },
        1 | 2 => Instr::Mulu { src: s, dst: d },
        3 => Instr::Muls { src: s, dst: d },
        // D7 is a non-zero divisor; a data register may be zero, which
        // takes the divide-by-zero path.
        4 => Instr::Divu {
            src: Ea::D(DataReg::D7),
            dst: d,
        },
        5 => Instr::Divu { src: s, dst: d },
        6 => Instr::Divs {
            src: Ea::D(DataReg::D7),
            dst: d,
        },
        7 => Instr::Add {
            size: size(rng),
            src: s,
            dst: d,
        },
        8 => Instr::Sub {
            size: size(rng),
            src: s,
            dst: d,
        },
        9 => Instr::Eor {
            size: Size::Word,
            src: data_reg(rng),
            dst: Ea::D(d),
        },
        10 => Instr::Swap { dst: d },
        11 => Instr::Shift {
            kind: [ShiftKind::Lsl, ShiftKind::Asr, ShiftKind::Ror][rng.gen_range(3)],
            size: Size::Word,
            count: if rng.gen_range(2) == 0 {
                ShiftCount::Imm(1 + rng.gen_range(8) as u8)
            } else {
                ShiftCount::Reg(DataReg::D6)
            },
            dst: d,
        },
        12 | 13 => Instr::Move {
            size: Size::Word,
            src: Ea::PostInc(AddrReg::A0),
            dst: Ea::D(d),
        },
        14 => Instr::Move {
            size: Size::Word,
            src: s,
            dst: Ea::PostInc(AddrReg::A1),
        },
        15 => Instr::Btst {
            bit: rng.gen_range(16) as u8,
            dst: Ea::D(d),
        },
        16 => Instr::Tst {
            size: Size::Word,
            dst: Ea::D(d),
        },
        17 => Instr::Nop,
        18 => Instr::Move {
            size: Size::Word,
            src: Ea::AbsL(pasm_mem::map::TIMER),
            dst: Ea::D(d),
        },
        _ => Instr::Move {
            size: Size::Byte,
            src: status_ea(),
            dst: Ea::D(d),
        },
    }
}

/// A generated workload.
struct Case {
    cfg: MachineConfig,
    fault: FaultPlan,
    pe: Program,
    mcs: Vec<Program>,
    seed: u64,
}

fn gen_case(seed: u64) -> Case {
    let mut rng = Rng::seed_from_u64(seed);
    let n_pes = [4, 8][rng.gen_range(2)];
    let n_mcs = [1, 2, 4][rng.gen_range(3)];
    let cfg = MachineConfig {
        n_pes,
        n_mcs,
        pe_mem_bytes: 1 << 16,
        queue_capacity_words: [6, 8, 12, 48][rng.gen_range(4)],
        fuc_cycles_per_word: 1 + rng.gen_range(3) as u64,
        fuc_command_cycles: [0, 4][rng.gen_range(2)],
        simd_release_cycles: [0, 0, 1, 3][rng.gen_range(4)],
        release_mode: if rng.gen_range(5) == 0 {
            ReleaseMode::Decoupled
        } else {
            ReleaseMode::Lockstep
        },
        max_cycles: 3_000_000,
        ..MachineConfig::small()
    };
    let fault = match rng.gen_range(7) {
        0 => FaultPlan::pe_single(rng.gen_range(n_pes), PeFault::Dead),
        1 => FaultPlan::pe_single(
            rng.gen_range(n_pes),
            PeFault::Slow {
                extra_wait: 1 + rng.gen_range(3) as u64,
            },
        ),
        _ => FaultPlan::default(),
    };

    // Phase plan shared by every MC: how many barrier words each MIMD
    // phase consumes, and how many network exchanges each SIMD phase
    // holds (every PE sends and receives one byte per exchange, so the
    // counts must agree machine-wide).
    let phases = 1 + rng.gen_range(3);
    let barriers: Vec<u16> = (0..phases).map(|_| rng.gen_range(3) as u16).collect();
    let exchanges: Vec<usize> = (0..phases).map(|_| rng.gen_range(2)).collect();

    // PE program: prologue, then per phase a SIMD episode and a MIMD
    // episode with that phase's barrier reads, then HALT.
    let mut pe = ProgramBuilder::new();
    for _ in 0..rng.gen_range(4) {
        pe.emit(random_instr(&mut rng, true));
    }
    let mut resume = Vec::new();
    for &b in &barriers {
        pe.emit(Instr::JmpSimd);
        resume.push(pe.position());
        let work = rng.gen_range(6);
        let mut slots: Vec<bool> = vec![false; work + b as usize];
        for s in slots.iter_mut().take(b as usize) {
            *s = true;
        }
        // Shuffle the barrier reads into the work.
        for i in (1..slots.len()).rev() {
            slots.swap(i, rng.gen_range(i + 1));
        }
        for barrier in slots {
            pe.emit(if barrier {
                Instr::Barrier
            } else {
                random_instr(&mut rng, true)
            });
        }
    }
    pe.emit(Instr::JmpSimd);
    let halt = pe.position();
    pe.emit(Instr::Halt);
    let pe = pe.build().expect("PE program");

    let ppm = n_pes / n_mcs;
    let full = ((1u32 << ppm) - 1) as u16;
    let mcs = (0..n_mcs)
        .map(|_| {
            let mut b = ProgramBuilder::new();
            // Broadcast blocks: random work, phase-marked work (balanced
            // marks, so it runs under the full mask only), a network
            // exchange, and one exit block per phase.
            let mut work = Vec::new();
            for _ in 0..1 + rng.gen_range(4) {
                let blk = b.begin_block();
                for _ in 0..1 + rng.gen_range(12) {
                    let mmio = rng.gen_range(4) == 0;
                    b.emit(random_instr(&mut rng, mmio));
                }
                b.end_block();
                work.push(blk);
            }
            let marked = b.begin_block();
            b.emit(Instr::Mark {
                begin: true,
                phase: 3,
            });
            for _ in 0..1 + rng.gen_range(5) {
                b.emit(random_instr(&mut rng, false));
            }
            b.emit(Instr::Mark {
                begin: false,
                phase: 3,
            });
            b.end_block();
            let exchange = b.begin_block();
            b.emit(Instr::Move {
                size: Size::Byte,
                src: Ea::D(DataReg::D1),
                dst: dtr_ea(),
            });
            b.emit(Instr::Move {
                size: Size::Byte,
                src: drr_ea(),
                dst: Ea::D(DataReg::D2),
            });
            b.end_block();
            let exits: Vec<_> = resume
                .iter()
                .chain(std::iter::once(&halt))
                .map(|&target| {
                    let blk = b.begin_block();
                    b.emit(Instr::JmpMimd { target });
                    b.end_block();
                    blk
                })
                .collect();

            b.emit(Instr::SetMask { mask: full });
            b.emit(Instr::StartPes);
            for (k, (&words, &xchg)) in barriers.iter().zip(&exchanges).enumerate() {
                let mut pending_xchg = xchg;
                for _ in 0..1 + rng.gen_range(6) {
                    let mask = match rng.gen_range(4) {
                        0 => 0,
                        1 => rng.gen_u16() & full,
                        _ => full,
                    };
                    match rng.gen_range(5) {
                        0 if mask == full => {
                            b.emit(Instr::SetMask { mask });
                            b.emit(Instr::Enqueue { block: marked.0 });
                        }
                        1 if pending_xchg > 0 => {
                            pending_xchg -= 1;
                            b.emit(Instr::SetMask { mask: full });
                            b.emit(Instr::Enqueue { block: exchange.0 });
                        }
                        2 => {
                            // An MC loop: the same block several times, with
                            // MC-side arithmetic between the commands.
                            let blk = work[rng.gen_range(work.len())];
                            b.emit(Instr::SetMask { mask });
                            b.emit(Instr::Moveq {
                                value: rng.gen_range(4) as i8,
                                dst: DataReg::D0,
                            });
                            let top = b.here(format!("loop{k}_{}", b.position()));
                            b.emit(Instr::Enqueue { block: blk.0 });
                            b.emit(Instr::Mulu {
                                src: Ea::D(DataReg::D0),
                                dst: DataReg::D1,
                            });
                            b.branch(
                                Instr::Dbra {
                                    dst: DataReg::D0,
                                    target: 0,
                                },
                                top,
                            );
                        }
                        _ => {
                            b.emit(Instr::SetMask { mask });
                            b.emit(Instr::Enqueue {
                                block: work[rng.gen_range(work.len())].0,
                            });
                        }
                    }
                }
                for _ in 0..pending_xchg {
                    b.emit(Instr::SetMask { mask: full });
                    b.emit(Instr::Enqueue { block: exchange.0 });
                }
                // Back to MIMD, then the barrier words that phase reads.
                b.emit(Instr::SetMask { mask: full });
                b.emit(Instr::Enqueue { block: exits[k].0 });
                if words > 0 {
                    b.emit(Instr::EnqueueWords { count: words });
                }
            }
            b.emit(Instr::SetMask { mask: full });
            b.emit(Instr::Enqueue {
                block: exits[phases].0,
            });
            b.emit(Instr::Halt);
            b.build().expect("MC program")
        })
        .collect();
    Case {
        cfg,
        fault,
        pe,
        mcs,
        seed,
    }
}

/// What one run leaves behind, compared field for field across engines.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<RunResult, String>,
    regs: Vec<([u32; 8], [u32; 8])>,
    stores: Vec<Vec<u16>>,
}

fn run(case: &Case, fast_path: bool) -> (Observed, EngineStats) {
    let mut m = Machine::new(case.cfg.clone());
    m.set_fast_path(fast_path);
    m.apply_fault_plan(&case.fault).expect("valid fault plan");
    let pes: Vec<usize> = (0..case.cfg.n_pes).collect();
    m.connect_ring(&pes)
        .expect("ring routes on a fault-free network");
    let mut rng = Rng::seed_from_u64(case.seed ^ 0x5EED);
    for pe in 0..case.cfg.n_pes {
        m.load_pe_program(pe, case.pe.clone());
        let cpu = m.pe_cpu_mut(pe);
        for d in cpu.d.iter_mut() {
            *d = rng.gen_u32();
        }
        cpu.d[7] |= 1;
        cpu.a[0] = READ_BASE;
        cpu.a[1] = WRITE_BASE;
        let words: Vec<u16> = (0..0x800).map(|_| rng.gen_u16()).collect();
        m.pe_mem_mut(pe).load_words(READ_BASE, &words);
    }
    for (mc, prog) in case.mcs.iter().enumerate() {
        m.load_mc_program(mc, prog.clone());
    }
    let outcome = m.run().map_err(|e| e.to_string());
    let regs = (0..case.cfg.n_pes)
        .map(|pe| (m.pe_cpu(pe).d, m.pe_cpu(pe).a))
        .collect();
    let stores = (0..case.cfg.n_pes)
        .map(|pe| {
            (0..WRITE_WORDS)
                .map(|w| m.pe_mem(pe).read_word(WRITE_BASE + 2 * w))
                .collect()
        })
        .collect();
    (
        Observed {
            outcome,
            regs,
            stores,
        },
        m.engine_stats(),
    )
}

#[test]
fn lockstep_batch_matches_the_interpreter_on_random_simd_streams() {
    let start = Instant::now();
    let mut total = EngineStats::default();
    let mut completed = 0u64;
    let mut seed = 0u64;
    while seed < MIN_SEEDS || (seed < MAX_SEEDS && start.elapsed() < BUDGET) {
        let case = gen_case(seed);
        let (fast, engine) = run(&case, true);
        let (interp, _) = run(&case, false);
        assert_eq!(
            fast,
            interp,
            "seed {seed}: lockstep batch diverged from the interpreter ({:?}, {} PEs / {} MCs, \
             queue {} words, fault {:?})",
            case.cfg.release_mode,
            case.cfg.n_pes,
            case.cfg.n_mcs,
            case.cfg.queue_capacity_words,
            case.fault,
        );
        completed += fast.outcome.is_ok() as u64;
        total.lockstep_instrs += engine.lockstep_instrs;
        total.interp_instrs += engine.interp_instrs;
        total.block_instrs += engine.block_instrs;
        for (t, e) in total.lockstep_exits.iter_mut().zip(engine.lockstep_exits) {
            *t += e;
        }
        seed += 1;
    }
    eprintln!(
        "{seed} seeds ({completed} ran to completion), {:.0}% of PE instructions in the lockstep \
         batch, exits {:?}",
        100.0 * total.lockstep_share(),
        EngineStats::exit_rows(&total.lockstep_exits),
    );
    // The generator must actually exercise the batch and its exits.
    assert!(completed * 2 > seed, "most workloads should complete");
    assert!(total.lockstep_instrs > 0);
    for reason in ["stop", "mmio", "mc_horizon", "drained"] {
        assert!(
            EngineStats::exit_rows(&total.lockstep_exits)
                .iter()
                .any(|&(r, n)| r == reason && n > 0),
            "no batch ended with {reason}"
        );
    }
}
