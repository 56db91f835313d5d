//! The reference the structural identity is tested against: the keys the
//! lint and schedule memos used before they keyed on
//! [`revel_prog::structural_id`] — a `Debug` rendering streamed into two
//! SipHashers, and a `format!`ed `String` — kept whole, so that nothing the
//! identity computes is also what it is compared with.
//!
//! The claim is one-sided: the structural identity is **never coarser**
//! than the rendering (keys differ ⇒ ids differ), on every cell of the
//! evaluation grid and on seeded single-field mutations of them. It is
//! deliberately *finer* in two named places, each tested below: a host
//! op's declared effect (which `Debug` does not print and the
//! obliviousness lint reads) and `f64` bit patterns `Debug` conflates.

use revel_bench::grid::evaluation_grid;
use revel_dfg::{Dfg, Node};
use revel_fabric::{FabricMask, LaneConfig, RevelConfig};
use revel_isa::{LaneMask, Rng, StreamCommand, VectorCommand};
use revel_prog::{
    structural_id, ControlStep, DynBind, DynField, DynSrc, DynStep, HostWrite, RevelProgram,
    StructuralId,
};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// 128-bit structural fingerprint of a `Debug` rendering: the text is
/// streamed into two independently-prefixed hashers, never allocated.
fn debug_fingerprint<T: fmt::Debug + ?Sized>(value: &T) -> (u64, u64) {
    use std::fmt::Write as _;
    use std::hash::Hasher as _;
    struct Fp(std::collections::hash_map::DefaultHasher, std::collections::hash_map::DefaultHasher);
    impl fmt::Write for Fp {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            self.0.write(s.as_bytes());
            self.1.write(s.as_bytes());
            Ok(())
        }
    }
    let mut fp = Fp(Default::default(), Default::default());
    fp.0.write_u8(0);
    fp.1.write_u8(1);
    let _ = write!(fp, "{value:?}");
    (fp.0.finish(), fp.1.finish())
}

/// One thing a memo is asked about: a program on a machine configuration,
/// scheduled under a fabric mask.
#[derive(Clone)]
struct Subject {
    program: RevelProgram,
    cfg: RevelConfig,
    mask: FabricMask,
}

/// Both memos' keys for one subject, retired (`old_*`) and structural.
#[derive(Debug, Clone, PartialEq)]
struct Keys {
    old_lint: (String, u64, u64),
    lint: StructuralId,
    old_schedule: String,
    schedule: StructuralId,
}

impl Subject {
    fn keys(&self) -> Keys {
        let Subject { program, cfg, mask } = self;
        let (a, b) = debug_fingerprint(&(program, cfg));
        Keys {
            old_lint: (program.name.clone(), a, b),
            lint: structural_id(&(program, cfg)),
            old_schedule: format!(
                "{}\0{:?}\0{:?}\0{mask}",
                program.name, cfg.lane, program.configs
            ),
            schedule: structural_id(&(&program.name, &cfg.lane, &program.configs, *mask)),
        }
    }
}

/// Records `keys` and fails if any earlier subject shares a structural id
/// with it but not the retired key: the structural identity would have
/// merged two things the rendering told apart.
#[derive(Default)]
struct NeverCoarser {
    lint: HashMap<StructuralId, (String, u64, u64)>,
    schedule: HashMap<StructuralId, String>,
}

impl NeverCoarser {
    fn record(&mut self, keys: &Keys, what: &str) {
        let old = self.lint.entry(keys.lint).or_insert_with(|| keys.old_lint.clone());
        assert_eq!(*old, keys.old_lint, "{what}: one lint id for two rendered keys");
        let old = self.schedule.entry(keys.schedule).or_insert_with(|| keys.old_schedule.clone());
        assert_eq!(*old, keys.old_schedule, "{what}: one schedule id for two rendered keys");
    }
}

fn grid_subjects() -> Vec<(String, Subject)> {
    let cells = evaluation_grid();
    assert_eq!(cells.len(), 42);
    cells
        .iter()
        .map(|cell| {
            let label = format!("{} {} [{}]", cell.bench.name(), cell.bench.params(), cell.arch);
            let subject = Subject {
                program: cell.bench.workload().build(&cell.cfg).program,
                cfg: cell.cfg.machine_config(),
                mask: FabricMask::HEALTHY,
            };
            (label, subject)
        })
        .collect()
}

/// The shipped command of a control step, if it has one.
fn command_mut(step: &mut ControlStep) -> Option<&mut VectorCommand> {
    match step {
        ControlStep::Command(vc) => Some(vc),
        ControlStep::Dyn(ds) => Some(&mut ds.template),
        ControlStep::Host(_) => None,
    }
}

/// Applies `edit` to the first command at or after a random control step
/// that accepts it (wrapping around), so a mutation lands wherever the
/// program has a place for it.
fn edit_some_command(
    program: &mut RevelProgram,
    rng: &mut Rng,
    mut edit: impl FnMut(&mut VectorCommand) -> bool,
) -> bool {
    let n = program.control.len();
    let from = rng.gen_index(n.max(1));
    (0..n).any(|k| command_mut(&mut program.control[(from + k) % n]).is_some_and(&mut edit))
}

/// `dfg` with node `at` — a constant — holding `value` instead.
fn with_const(dfg: &Dfg, at: usize, value: f64) -> Dfg {
    let mut g = Dfg::new(dfg.name());
    for (i, node) in dfg.nodes().iter().enumerate() {
        match node {
            Node::Input { port, scalar: false } => g.input(*port),
            Node::Input { port, scalar: true } => g.input_scalar(*port),
            Node::Const { value: v } => g.konst(if i == at { value } else { *v }),
            Node::Op { op, args } => g.op(*op, args),
            Node::Accum { arg, len } => g.accum(*arg, *len),
            Node::AccumVec { arg, len } => g.accum_vec(*arg, *len),
            Node::Output { arg, port } => g.output(*arg, *port),
        };
    }
    g
}

/// (config, region, node) of the first DFG constant of `program`.
fn first_const(program: &RevelProgram) -> Option<(usize, usize, usize)> {
    program.configs.iter().enumerate().find_map(|(c, regions)| {
        regions.iter().enumerate().find_map(|(r, region)| {
            let at = region.dfg.nodes().iter().position(|n| matches!(n, Node::Const { .. }))?;
            Some((c, r, at))
        })
    })
}

/// A nonzero delta in `-3..=3`.
fn delta(rng: &mut Rng) -> i64 {
    let d = rng.gen_range_i64(1, 4);
    if rng.gen_bool() {
        d
    } else {
        -d
    }
}

/// One class of single-field mutation: turns `base` into a `(base,
/// mutated)` pair differing in exactly that field, or `None` when the
/// program has no such field. (`base` is returned because one class first
/// has to give the program a dynamic step to mutate.)
type Mutation = fn(&Subject, &mut Rng) -> Option<(Subject, Subject)>;

/// The common shape: clone, edit the clone in place.
fn edited(base: &Subject, edit: impl FnOnce(&mut Subject) -> bool) -> Option<(Subject, Subject)> {
    let mut mutated = base.clone();
    edit(&mut mutated).then(|| (base.clone(), mutated))
}

const MUTATIONS: &[(&str, Mutation)] = &[
    ("pattern stride", |base, rng| {
        let d = delta(rng);
        edited(base, |s| {
            edit_some_command(&mut s.program, rng, |vc| match &mut vc.cmd {
                StreamCommand::Load { pattern, .. } | StreamCommand::Store { pattern, .. } => {
                    pattern.stride_i += d;
                    true
                }
                _ => false,
            })
        })
    }),
    ("rate stretch", |base, rng| {
        let d = delta(rng);
        edited(base, |s| {
            edit_some_command(&mut s.program, rng, |vc| match &mut vc.cmd {
                StreamCommand::Load { reuse: rate, .. }
                | StreamCommand::Store { discard: rate, .. }
                | StreamCommand::Xfer { production: rate, .. }
                | StreamCommand::SetAccumLen { len: rate, .. } => {
                    rate.stretch += d;
                    true
                }
                _ => false,
            })
        })
    }),
    ("lane mask bit", |base, rng| {
        let bit = rng.gen_index(8);
        edited(base, |s| {
            edit_some_command(&mut s.program, rng, |vc| {
                vc.lanes = LaneMask::from_bits(vc.lanes.bits() ^ (1 << bit));
                true
            })
        })
    }),
    ("lane scale delta", |base, rng| {
        let (d, which) = (delta(rng), rng.gen_index(3));
        edited(base, |s| {
            edit_some_command(&mut s.program, rng, |vc| {
                match which {
                    0 => vc.scale.addr_per_lane += d,
                    1 => vc.scale.len_i_per_lane += d,
                    _ => vc.scale.len_j_per_lane += d,
                }
                true
            })
        })
    }),
    ("dyn bind source", |base, rng| {
        // The grid has no dynamic steps: make one data command guarded,
        // then move the guard's source word.
        let n = base.program.control.len();
        let at = (0..n).map(|k| (rng.gen_index(n) + k) % n).find(
            |&i| matches!(&base.program.control[i], ControlStep::Command(vc) if !vc.cmd.is_sync()),
        )?;
        let ControlStep::Command(template) = base.program.control[at].clone() else {
            return None;
        };
        let addr = rng.gen_range_i64(0, 64);
        let guarded = |src: DynSrc| {
            let mut s = base.clone();
            s.program.control[at] = ControlStep::Dyn(DynStep {
                template: template.clone(),
                binds: vec![DynBind { field: DynField::Guard, src }],
            });
            s
        };
        let moved = if rng.gen_bool() {
            DynSrc::Shared { addr: addr + 1 }
        } else {
            DynSrc::Private { lane: 0, addr }
        };
        Some((guarded(DynSrc::Shared { addr }), guarded(moved)))
    }),
    ("region unroll", |base, rng| {
        edited(base, |s| {
            let c = rng.gen_index(s.program.configs.len().max(1));
            let Some(regions) = s.program.configs.get_mut(c).filter(|r| !r.is_empty()) else {
                return false;
            };
            let r = rng.gen_index(regions.len());
            let region = &mut regions[r];
            region.unroll = if region.unroll == 1 { 2 } else { region.unroll - 1 };
            true
        })
    }),
    ("dfg const", |base, rng| {
        let bump = delta(rng) as f64;
        edited(base, |s| {
            let Some((c, r, at)) = first_const(&s.program) else {
                return false;
            };
            let region = &mut s.program.configs[c][r];
            let Node::Const { value } = region.dfg.nodes()[at] else { unreachable!() };
            region.dfg = with_const(&region.dfg, at, value + bump);
            true
        })
    }),
    ("config order", |base, rng| {
        // Every grid program has one configuration: give it a second (the
        // first with one region renamed), then swap the two.
        let mut two = base.clone();
        let mut second = two.program.configs.first()?.clone();
        let r = rng.gen_index(second.len().max(1));
        second.get_mut(r)?.name.push('\'');
        two.program.configs.push(second);
        edited(&two, |s| {
            s.program.configs.swap(0, 1);
            true
        })
    }),
    ("program name", |base, rng| {
        let suffix = (b'a' + rng.gen_index(26) as u8) as char;
        edited(base, |s| {
            s.program.name.push(suffix);
            true
        })
    }),
    ("lane config field", |base, rng| {
        let which = rng.gen_index(6);
        edited(base, |s| {
            let LaneConfig {
                port_fifo_depth,
                stream_table_entries,
                spad_words,
                dpe_instr_slots,
                in_port_widths,
                fu_mix,
                ..
            } = &mut s.cfg.lane;
            match which {
                0 => *port_fifo_depth += 1,
                1 => *stream_table_entries += 1,
                2 => *spad_words *= 2,
                3 => *dpe_instr_slots -= 1,
                4 => in_port_widths[0] /= 2,
                _ => fu_mix.adders += 1,
            }
            true
        })
    }),
    ("clock", |base, rng| {
        let scale = rng.gen_range_f64(1.01, 2.0);
        edited(base, |s| {
            s.cfg.clock_ghz *= scale;
            true
        })
    }),
    ("host cycles", |base, rng| {
        let d = rng.gen_range_i64(1, 9) as u64;
        edited(base, |s| {
            let n = s.program.control.len();
            let from = rng.gen_index(n.max(1));
            (0..n).any(|k| match &mut s.program.control[(from + k) % n] {
                ControlStep::Host(op) => {
                    op.cycles += d;
                    true
                }
                _ => false,
            })
        })
    }),
    ("fabric mask", |base, rng| {
        // Part of the schedule identity only: a degraded fabric compiles
        // its own placement, its lint verdict is the healthy one.
        let (pe, link) = (rng.gen_index(25), rng.gen_index(40) as u32);
        edited(base, |s| {
            s.mask =
                if rng.gen_bool() { s.mask.with_dead_pe(pe) } else { s.mask.with_dead_link(link) };
            true
        })
    }),
];

#[test]
fn structural_identity_is_never_coarser_than_the_rendered_keys() {
    let subjects = grid_subjects();
    let mut seen = NeverCoarser::default();

    // The grid itself, each cell built twice: one id per cell, and no two
    // cells the rendering tells apart share one.
    for ((label, first), (_, second)) in subjects.iter().zip(grid_subjects()) {
        let keys = first.keys();
        assert_eq!(keys, second.keys(), "{label}: two builds of one cell, two identities");
        seen.record(&keys, label);
    }
    // Some ablation steps leave a kernel's program as it was, so the 42
    // cells are fewer distinct programs — as many under either key.
    let rendered: std::collections::HashSet<_> = seen.lint.values().collect();
    assert_eq!(seen.lint.len(), rendered.len());
    assert!(rendered.len() >= 30, "{}", rendered.len());

    // Seeded single-field mutations. Mutants of the seven large cells
    // would spend the test's time rendering: the 35 small ones carry the
    // same command, region and node kinds.
    let small: Vec<_> = subjects.iter().filter(|(_, s)| s.program.control.len() < 2000).collect();
    assert!(small.len() >= 30, "{}", small.len());
    let mut rng = Rng::seed_from_u64(0x1DE7_717E);
    let mut separated: BTreeMap<&str, usize> = BTreeMap::new();
    let mut pairs = 0;
    for round in 0..28 {
        for (class, mutate) in MUTATIONS {
            let (label, base) = small[rng.gen_index(small.len())];
            let Some((base, mutated)) = mutate(base, &mut rng) else {
                continue;
            };
            let what = format!("{label}, {class}, round {round}");
            let (a, b) = (base.keys(), mutated.keys());
            let told_apart = a.old_lint != b.old_lint || a.old_schedule != b.old_schedule;
            if a.old_lint != b.old_lint {
                assert_ne!(a.lint, b.lint, "{what}: lint identity coarser than its rendering");
            }
            if a.old_schedule != b.old_schedule {
                assert_ne!(a.schedule, b.schedule, "{what}: schedule identity coarser");
            }
            // The mask is the one class the lint key must *not* see.
            assert_eq!(a.lint == b.lint, *class == "fabric mask", "{what}");
            seen.record(&a, &what);
            seen.record(&b, &what);
            pairs += 1;
            *separated.entry(class).or_default() += usize::from(told_apart);
        }
    }
    assert!(pairs >= 256, "only {pairs} mutations applied");
    for (class, _) in MUTATIONS {
        let n = separated.get(class).copied().unwrap_or(0);
        assert!(n >= 1, "no '{class}' mutation produced a pair the oracle separates");
    }
}

/// A small subject with a host op ahead of a guarded load, for the two
/// places the structural identity is finer than the rendering.
fn host_guarded(effect: Option<Vec<HostWrite>>, konst: f64) -> Subject {
    use crate::test_util::*;
    let mut program = neg_program(&[0], 6);
    let dfg = &mut program.configs[0][0].dfg;
    let at = dfg.konst(0.0).0 as usize;
    *dfg = with_const(dfg, at, konst);
    match effect {
        None => program.push_host(4, |m| m.write(None, 40, 1.0)),
        Some(effect) => program.push_host_declared(4, effect, |m| m.write(None, 40, 1.0)),
    }
    program.push_dyn(DynStep {
        template: VectorCommand::broadcast(LaneMask::all(1), load_priv(0, 8, 0)),
        binds: vec![DynBind { field: DynField::Guard, src: DynSrc::Shared { addr: 40 } }],
    });
    push1(&mut program, store_priv(6, 8, 8));
    Subject { program, cfg: single_lane(), mask: FabricMask::HEALTHY }
}

#[test]
fn finer_than_the_rendering_a_host_ops_declared_effect() {
    let size_only = |size_only| vec![HostWrite { lane: None, addr: 40, len: 1, size_only }];
    let undeclared = host_guarded(None, 0.0).keys();
    let declared = host_guarded(Some(size_only(true)), 0.0).keys();
    let tainted = host_guarded(Some(size_only(false)), 0.0).keys();
    // `Debug for HostOp` prints `cycles` and nothing else...
    assert_eq!(undeclared.old_lint, declared.old_lint);
    assert_eq!(declared.old_lint, tainted.old_lint);
    // ...but the obliviousness lint reads the effect, so identity must.
    assert_ne!(undeclared.lint, declared.lint);
    assert_ne!(declared.lint, tainted.lint);
    assert_ne!(undeclared.lint, tainted.lint);
    let certified = |effect| {
        let s = host_guarded(effect, 0.0);
        crate::certified(&crate::verdict(&s.program, &s.cfg))
    };
    assert!(!certified(None), "an undeclared host op taints the guard's word");
    assert!(certified(Some(size_only(true))), "a declared size-only write certifies it");
    assert!(!certified(Some(size_only(false))));
}

#[test]
fn finer_than_the_rendering_f64_bit_patterns() {
    let konst = |bits: u64| host_guarded(None, f64::from_bits(bits)).keys();
    // Two quiet NaNs with different payloads both print `NaN`.
    let (nan, other_nan) = (konst(0x7FF8_0000_0000_0000), konst(0x7FF8_0000_0000_0001));
    assert_eq!(nan.old_lint, other_nan.old_lint);
    assert_eq!(nan.old_schedule, other_nan.old_schedule);
    assert_ne!(nan.lint, other_nan.lint);
    assert_ne!(nan.schedule, other_nan.schedule);
    // Signed zeros are equal under `==` but differ under both keys.
    let (zero, neg_zero) = (konst(0.0f64.to_bits()), konst((-0.0f64).to_bits()));
    assert_ne!(zero.old_lint, neg_zero.old_lint);
    assert_ne!(zero.lint, neg_zero.lint);
    assert_ne!(zero.schedule, neg_zero.schedule);
    // The machine's clock is the other `f64` identity reaches.
    let clocked = |ghz: f64| {
        let mut s = host_guarded(None, 0.0);
        s.cfg.clock_ghz = ghz;
        s.keys()
    };
    assert_ne!(clocked(0.0).old_lint, clocked(-0.0).old_lint);
    assert_ne!(clocked(0.0).lint, clocked(-0.0).lint);
    assert_ne!(clocked(1.25).lint, clocked(1.25f64.next_up()).lint);
}
