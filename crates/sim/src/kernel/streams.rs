//! Stream engines: sources (loads, consts) fill input ports under
//! bandwidth budgets; drains (stores, XFERs) empty output ports; completed
//! streams retire and free their ports.
//!
//! A load fills its port by the run: the rest of a stride-1 row, as much of
//! it as the budget and the port's staged vector take, is one bounds-checked
//! read, one staging copy and at most one flush. The store→load guard is
//! asked once per run — by address range — and a run it may hold moves
//! word by word, each word asking the guard as before.
//!
//! Progress tracking caveat: [`OutPort::pop_kept`] can mutate the port and
//! still return `None` — a spent head vector (trailing predicated-off
//! lanes, or values consumed by the discard FSM) is popped while scanning,
//! freeing FIFO space that may unblock a region next cycle. A `None` from
//! `pop_kept` therefore must not be read as "nothing happened"; the drain
//! loops compare occupancy around the call instead.
//!
//! [`OutPort::pop_kept`]: crate::port::OutPort::pop_kept

use super::PortSet;
use crate::lane::{Lane, StreamBody};
use crate::machine::Machine;
use revel_isa::MemTarget;

impl Machine {
    /// Moves data for source streams: loads (private + shared) and consts.
    /// Returns `true` iff any word moved or a stream-end flush landed.
    ///
    /// A gated lane is skipped unless the lanes before it have spent the
    /// shared scratchpad's budget and its last pass reached that budget's
    /// check: a pass with none left flags the lane starved.
    pub(crate) fn run_source_streams(&mut self) -> bool {
        let mut progress = false;
        let mut shared_budget = self.cfg.shared_spad_bw_words;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let lane = &mut self.lanes[li];
            if lane.data.gated && (shared_budget > 0 || !lane.data.shared) {
                continue;
            }
            #[cfg(test)]
            {
                lane.data.tally.run_for_shared_budget += u64::from(lane.data.gated);
            }
            let mut priv_budget = lane.cfg.spad_bw_words;
            let mut const_budget = lane.cfg.xfer_bw_words;
            let Lane { streams, in_ports, flush_owed, spad, events, retire_due, .. } = lane;
            let mut moved = false;
            let mut starved = false;
            let mut sync_blocked = false;
            let mut shared = false;
            for si in 0..streams.len() {
                // The stream table is in issue order, so the streams before
                // this one are exactly the older ones — the store→load
                // guard below reads them in place. (Stores only move in the
                // drain phase, so they hold still while sources run.)
                let (older, rest) = streams.split_at_mut(si);
                match &mut rest[0].body {
                    StreamBody::Load { target, walker, dst, flushed } => {
                        let budget: &mut usize = match target {
                            MemTarget::Private => &mut priv_budget,
                            MemTarget::Shared => &mut shared_budget,
                        };
                        let port = &mut in_ports[*dst as usize];
                        shared |= *target == MemTarget::Shared && !walker.exhausted();
                        // Once per stream per pass: whether its rows move
                        // as runs.
                        let runs = walker.rows_are_runs();
                        // Words of a run the guard may hold, still to move
                        // one by one.
                        let mut by_word = 0usize;
                        while let Some(elem) = walker.peek() {
                            if *budget == 0 {
                                starved = true;
                                break;
                            }
                            if runs && by_word == 0 {
                                // A run: the rest of a stride-1 row, as far
                                // as the budget and the staged vector allow,
                                // moved at once when no older store to its
                                // memory spans any of its addresses (so the
                                // guard below would release each word).
                                let room = port.staging_room();
                                if room == 0 {
                                    break;
                                }
                                let row_left = walker.row_left();
                                let n = row_left.min(room as i64).min(*budget as i64);
                                let (lo, hi) = (elem.offset, elem.offset + n - 1);
                                if !older.iter().any(|s| s.store_meets(*target, lo, hi)) {
                                    let spad = match target {
                                        MemTarget::Private => &*spad,
                                        MemTarget::Shared => &self.shared,
                                    };
                                    let recorder = &mut self.recorder;
                                    let pushed =
                                        port.push_run_with(n as usize, n == row_left, |words| {
                                            match recorder {
                                                Some(rec) => {
                                                    for (w, addr) in words.iter_mut().zip(lo..) {
                                                        *w = rec.load(*target, li, spad, addr);
                                                    }
                                                }
                                                None => spad.read_f64_run(lo, words),
                                            }
                                        });
                                    debug_assert!(pushed, "the staging room admits the run");
                                    walker.advance_by(n);
                                    *budget -= n as usize;
                                    moved = true;
                                    events.port_words += n as u64;
                                    match target {
                                        MemTarget::Private => events.spad_words += n as u64,
                                        MemTarget::Shared => {
                                            events.shared_spad_words += n as u64;
                                        }
                                    }
                                    continue;
                                }
                                by_word = n as usize;
                            }
                            by_word = by_word.saturating_sub(1);
                            if !port.can_accept() {
                                break;
                            }
                            // Store→load ordering: a load may not read an
                            // address an older store has yet to write
                            // (fine-grain scratchpad dependence tracking,
                            // which is what lets the paper's solver/Cholesky
                            // recirculate vectors through memory without
                            // full barriers). For write-once
                            // (producer→consumer) streams the load releases
                            // per element as soon as the address is written;
                            // for in-place multi-pass streams (the address
                            // was already written once and will be
                            // rewritten) the load synchronizes at row
                            // granularity — later rewrites are
                            // anti-dependences ordered by the dataflow
                            // itself.
                            let blocked = older.iter().any(|s| match &s.body {
                                StreamBody::Store {
                                    target: starget, walker: sw, written, ..
                                } => {
                                    *starget == *target
                                        && sw.remaining_contains(elem.offset)
                                        && (!written.contains(elem.offset)
                                            || sw.current_row() <= elem.j)
                                }
                                _ => false,
                            });
                            if blocked {
                                sync_blocked = true;
                                break;
                            }
                            let spad = match target {
                                MemTarget::Private => &*spad,
                                MemTarget::Shared => &self.shared,
                            };
                            let val = match &mut self.recorder {
                                Some(rec) => rec.load(*target, li, spad, elem.offset),
                                None => spad.read_f64(elem.offset),
                            };
                            if !port.push_word(val, elem.last_in_row) {
                                break;
                            }
                            walker.advance();
                            *budget -= 1;
                            moved = true;
                            events.port_words += 1;
                            match target {
                                MemTarget::Private => events.spad_words += 1,
                                MemTarget::Shared => events.shared_spad_words += 1,
                            }
                        }
                        if walker.exhausted() && !*flushed {
                            // `flush_at_stream_end` mutates nothing when it
                            // returns false, so the transition is the only
                            // progress case.
                            *flushed = port.flush_at_stream_end();
                            moved |= *flushed;
                            *retire_due |= *flushed;
                        }
                        flush_owed.set(*dst, port.owes_flush());
                    }
                    StreamBody::Const { dst, values } => {
                        let port = &mut in_ports[*dst as usize];
                        while const_budget > 0 {
                            let Some(&v) = values.front() else { break };
                            if !port.can_accept() {
                                break;
                            }
                            let v = self.recorder.as_mut().map_or(v, |rec| rec.constant(v));
                            // The last word ends the stream's last vector,
                            // flushing it even when partial.
                            if !port.push_word(v, values.len() == 1) {
                                break;
                            }
                            values.pop_front();
                            const_budget -= 1;
                            moved = true;
                            events.port_words += 1;
                        }
                        *retire_due |= values.is_empty();
                        flush_owed.set(*dst, port.owes_flush());
                    }
                    _ => {}
                }
            }
            lane.bw_starved |= starved;
            lane.barrier_blocked |= sync_blocked;
            lane.data.guard = sync_blocked;
            lane.data.shared |= shared;
            lane.data.moved |= moved;
            progress |= moved;
        }
        progress
    }

    /// Moves data for drain streams: stores (private + shared), local
    /// XFERs, and inter-lane XFERs. Returns `true` iff any output-port
    /// state changed (including hidden pops of spent head vectors).
    ///
    /// Gated lanes are skipped as in [`Machine::run_source_streams`]; a
    /// gated lane's `XferRight`s run when its right neighbour's input ports
    /// may have gained space since the pass it repeats.
    pub(crate) fn run_drain_streams(&mut self) -> bool {
        let mut progress = false;
        let mut shared_budget = self.cfg.shared_spad_bw_words;
        let num_lanes = self.lanes.len();
        // Stores and local xfers (single-lane).
        for li in 0..num_lanes {
            let lane = &mut self.lanes[li];
            if lane.data.gated && (shared_budget > 0 || !lane.data.shared) {
                continue;
            }
            let mut priv_budget = lane.cfg.spad_bw_words;
            let mut xfer_budget = lane.cfg.xfer_bw_words;
            let Lane { streams, in_ports, flush_owed, out_ports, spad, events, retire_due, .. } =
                lane;
            let mut moved = false;
            let mut starved = false;
            let mut shared = false;
            for stream in streams.iter_mut() {
                match &mut stream.body {
                    StreamBody::Store { src, target, walker, written, .. } => {
                        let budget: &mut usize = match target {
                            MemTarget::Private => &mut priv_budget,
                            MemTarget::Shared => &mut shared_budget,
                        };
                        let port = &mut out_ports[*src as usize];
                        shared |= *target == MemTarget::Shared && !walker.exhausted();
                        while let Some(elem) = walker.peek() {
                            if *budget == 0 {
                                if port.occupancy() > 0 {
                                    starved = true;
                                }
                                break;
                            }
                            let occ_before = port.occupancy();
                            let Some(v) = port.pop_kept() else {
                                moved |= port.occupancy() != occ_before;
                                break;
                            };
                            moved = true;
                            written.insert(elem.offset);
                            let spad = match target {
                                MemTarget::Private => {
                                    events.spad_words += 1;
                                    &mut *spad
                                }
                                MemTarget::Shared => {
                                    events.shared_spad_words += 1;
                                    &mut self.shared
                                }
                            };
                            match &mut self.recorder {
                                Some(rec) => rec.store(*target, li, spad, elem.offset, v),
                                None => spad.write_f64(elem.offset, v),
                            }
                            events.port_words += 1;
                            walker.advance();
                            *budget -= 1;
                        }
                        *retire_due |= walker.exhausted();
                    }
                    StreamBody::XferLocal { src, dst, remaining, rows } => {
                        let sp = *src as usize;
                        let dp = *dst as usize;
                        while *remaining > 0 && xfer_budget > 0 {
                            if !in_ports[dp].can_accept() {
                                break;
                            }
                            let occ_before = out_ports[sp].occupancy();
                            let Some(v) = out_ports[sp].pop_kept() else {
                                moved |= out_ports[sp].occupancy() != occ_before;
                                break;
                            };
                            moved = true;
                            // The last word ends the stream's last vector,
                            // flushing it even when partial.
                            let row_end = rows.step() | (*remaining == 1);
                            let ok = in_ports[dp].push_word(v, row_end);
                            debug_assert!(ok, "can_accept guaranteed space");
                            *remaining -= 1;
                            xfer_budget -= 1;
                            events.bus_words += 2; // bus out + bus in
                        }
                        *retire_due |= *remaining <= 0;
                        flush_owed.set(*dst, in_ports[dp].owes_flush());
                    }
                    _ => {}
                }
            }
            lane.bw_starved |= starved;
            lane.data.shared |= shared;
            lane.data.moved |= moved;
            progress |= moved;
        }
        if num_lanes > 1 {
            progress |= self.run_xfers_right();
        }
        progress
    }

    /// Moves data for inter-lane XFERs, each lane's into its right
    /// neighbour (on two or more lanes). Returns `true` iff any output-port
    /// state changed.
    fn run_xfers_right(&mut self) -> bool {
        let mut progress = false;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let (a, b) = if li + 1 < num_lanes {
                let (left, right) = self.lanes.split_at_mut(li + 1);
                (&mut left[li], &mut right[0])
            } else {
                let (left, right) = self.lanes.split_at_mut(li);
                (&mut right[0], &mut left[0])
            };
            a.data.pass_right_space = b.data.space;
            if a.data.gated && !a.right_space_moved() {
                continue;
            }
            #[cfg(test)]
            {
                a.data.tally.woken_by_right_space += u64::from(a.data.gated);
            }
            let mut moved = false;
            let mut pushed = false;
            let mut budget = a.cfg.inter_lane_bw_words;
            for stream in a.streams.iter_mut() {
                if let StreamBody::XferRight { src, dst, remaining, rows } = &mut stream.body {
                    let sp = *src as usize;
                    let dp = *dst as usize;
                    while *remaining > 0 && budget > 0 {
                        if !b.in_ports[dp].can_accept() {
                            break;
                        }
                        let occ_before = a.out_ports[sp].occupancy();
                        let Some(v) = a.out_ports[sp].pop_kept() else {
                            moved |= a.out_ports[sp].occupancy() != occ_before;
                            break;
                        };
                        pushed = true;
                        let row_end = rows.step() | (*remaining == 1);
                        let ok = b.in_ports[dp].push_word(v, row_end);
                        debug_assert!(ok, "can_accept guaranteed space");
                        *remaining -= 1;
                        budget -= 1;
                        a.events.bus_words += 2;
                    }
                    a.retire_due |= *remaining <= 0;
                    b.flush_owed.set(*dst, b.in_ports[dp].owes_flush());
                }
            }
            if pushed {
                // The words wait on the right lane's input port.
                b.data.gen += 1;
            }
            a.data.moved |= moved | pushed;
            progress |= moved | pushed;
        }
        progress
    }

    /// Removes completed streams and frees their ports, on the lanes whose
    /// streams flagged a completion (`Lane::retire_due`). Returns `true`
    /// iff any stream retired.
    pub(crate) fn retire_streams(&mut self) -> bool {
        let mut retired = false;
        for li in 0..self.lanes.len() {
            if std::mem::take(&mut self.lanes[li].retire_due) {
                retired |= self.retire_lane(li);
            }
        }
        retired
    }

    /// The sweep of every lane on every cycle, which the flagged
    /// retirement must match.
    #[cfg(test)]
    pub(crate) fn retire_streams_swept(&mut self) -> bool {
        let mut retired = false;
        for li in 0..self.lanes.len() {
            retired |= self.retire_lane(li);
        }
        retired
    }

    /// Retires lane `li`'s completed streams. Freeing a port wakes the lane
    /// that owns it. Returns `true` iff any stream retired.
    fn retire_lane(&mut self, li: usize) -> bool {
        let num_lanes = self.lanes.len();
        let mut retired = false;
        // The right lane's input ports freed by retiring `XferRight`s.
        let mut free_right = PortSet::default();
        let Lane { streams, in_busy, out_busy, wake, data, .. } = &mut self.lanes[li];
        streams.retain_mut(|s| {
            let done = match &mut s.body {
                StreamBody::Load { walker, flushed, .. } => walker.exhausted() && *flushed,
                StreamBody::Store { walker, .. } => walker.exhausted(),
                StreamBody::Const { values, .. } => values.is_empty(),
                StreamBody::XferLocal { remaining, .. }
                | StreamBody::XferRight { remaining, .. } => *remaining <= 0,
            };
            if done {
                retired = true;
                if let Some(p) = s.local_in_port() {
                    in_busy[p as usize] = false;
                }
                if let Some(p) = s.local_out_port() {
                    out_busy[p as usize] = false;
                }
                if let StreamBody::XferRight { dst, .. } = &s.body {
                    free_right.insert(*dst);
                }
            }
            !done
        });
        if retired {
            *wake += 1;
            data.gen += 1;
        }
        if !free_right.is_empty() {
            let right = &mut self.lanes[(li + 1) % num_lanes];
            for p in free_right.ports() {
                right.in_busy[p as usize] = false;
            }
            right.wake += 1;
        }
        retired
    }
}
