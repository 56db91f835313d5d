//! The control core: a single-issue command processor that constructs and
//! ships vector-stream commands, executes host ops, and blocks on `Wait`.

use super::NextEvent;
use crate::lane::Lane;
use crate::machine::Machine;
use crate::memory::Scratchpad;
use revel_isa::{LaneId, StreamCommand};
use revel_prog::{ControlStep, DynSrc, HostMem, RevelProgram};

/// Architectural state of the control core.
#[derive(Debug, Clone, Default)]
pub(crate) struct ControlCore {
    pub pc: usize,
    pub busy_until: u64,
    pub waiting: bool,
    pub commands_issued: u64,
}

impl NextEvent for ControlCore {
    fn next_event(&self, after: u64) -> Option<u64> {
        // `busy_until` is the core's only pure timer. `waiting` resolves on
        // lane state, and a full destination queue drains on lane progress;
        // both wake the loop through lane-side progress, not a clock.
        (self.busy_until > after).then_some(self.busy_until)
    }
}

/// Adapter giving host ops access to the machine's scratchpads.
pub(crate) struct MachineMem<'a> {
    pub lanes: &'a mut Vec<Lane>,
    pub shared: &'a mut Scratchpad,
}

impl HostMem for MachineMem<'_> {
    fn read(&self, lane: Option<u8>, addr: i64) -> f64 {
        match lane {
            Some(l) => self.lanes[l as usize].spad.read_f64(addr),
            None => self.shared.read_f64(addr),
        }
    }

    fn write(&mut self, lane: Option<u8>, addr: i64, value: f64) {
        match lane {
            Some(l) => self.lanes[l as usize].spad.write_f64(addr, value),
            None => self.shared.write_f64(addr, value),
        }
    }
}

impl Machine {
    pub(crate) fn program_finished(&self, program: &RevelProgram) -> bool {
        self.control.pc >= program.control.len() && !self.control.waiting && self.all_lanes_idle()
    }

    /// The single idle predicate: every lane has no queued command, stream,
    /// instance, in-flight firing, or pending reconfiguration. Used by both
    /// `Wait` resolution and program completion.
    pub(crate) fn all_lanes_idle(&self) -> bool {
        self.lanes.iter().all(|l| l.is_idle())
    }

    /// The control core: constructs and ships one vector-stream command per
    /// `cmd_issue_cycles`, and blocks on `Wait`. Returns `true` iff core
    /// state advanced (wait released, host op run, command shipped).
    pub(crate) fn control_step(&mut self, now: u64, program: &RevelProgram) -> bool {
        let mut progress = false;
        if self.control.waiting {
            if self.all_lanes_idle() {
                self.control.waiting = false;
                progress = true;
            } else {
                return false;
            }
        }
        if self.control.pc >= program.control.len() || now < self.control.busy_until {
            return progress;
        }
        let vc_owned;
        let vc = match &program.control[self.control.pc] {
            ControlStep::Host(op) => {
                // Host computations synchronize with the fabric through
                // explicit Wait steps placed before them by the builder;
                // here the core just burns cycles and touches memory.
                if let Some(t) = &mut self.trace {
                    t.record(crate::trace::TraceOp::Host { pc: self.control.pc as u32 });
                }
                let mut mem = MachineMem { lanes: &mut self.lanes, shared: &mut self.shared };
                (op.func)(&mut mem);
                self.control.busy_until = now + op.cycles.max(1);
                self.control.pc += 1;
                return true;
            }
            ControlStep::Command(vc) => vc,
            ControlStep::Dyn(ds) => {
                // Resolve the template against scratchpad words at issue
                // time. Resolution is a pure read, so re-resolving on a
                // queue-full retry is deterministic: memory only changes
                // through events that also wake this loop.
                let lanes = &self.lanes;
                let shared = &self.shared;
                let mut read = |src: DynSrc| match src {
                    DynSrc::Shared { addr } => shared.read_f64(addr),
                    DynSrc::Private { lane, addr } => {
                        lanes.get(lane as usize).map_or(0.0, |l| l.spad.read_f64(addr))
                    }
                };
                match ds.resolve_with(&mut read) {
                    Some(mut vc) => {
                        // A patched Configure index saturates at the last
                        // config: the fabric has nothing else to load.
                        if let StreamCommand::Configure { config } = &mut vc.cmd {
                            let last = program.configs.len().saturating_sub(1) as u32;
                            config.0 = config.0.min(last);
                        }
                        vc_owned = vc;
                        &vc_owned
                    }
                    None => {
                        // Guard read zero: the command vanishes, but the
                        // core still burns its issue slot deciding so.
                        self.control.busy_until = now + self.cfg.cmd_issue_cycles;
                        self.control.pc += 1;
                        return true;
                    }
                }
            }
        };
        if matches!(vc.cmd, StreamCommand::Wait) {
            self.control.waiting = true;
            self.control.pc += 1;
            self.control.busy_until = now + self.cfg.cmd_issue_cycles;
            return true;
        }
        // All destination queues must have space.
        let num_lanes = self.lanes.len();
        let targets = || vc.lanes.iter().map(|l| l.0 as usize).filter(move |l| *l < num_lanes);
        if targets().any(|l| self.lanes[l].cmd_queue.len() >= self.cfg.lane.cmd_queue_entries) {
            return progress; // retry next cycle
        }
        for l in targets() {
            let specialized = vc.specialize(LaneId(l as u8));
            self.lanes[l].cmd_queue.push_back(specialized);
        }
        self.control.commands_issued += 1;
        self.control_events.commands += 1;
        self.control.busy_until = now + self.cfg.cmd_issue_cycles;
        self.control.pc += 1;
        true
    }
}
