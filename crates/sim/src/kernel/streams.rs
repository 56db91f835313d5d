//! Stream engines: sources (loads, consts) fill input ports under
//! bandwidth budgets; drains (stores, XFERs) empty output ports; completed
//! streams retire and free their ports.
//!
//! Progress tracking caveat: [`OutPort::pop_kept`] can mutate the port and
//! still return `None` — a spent head vector (trailing predicated-off
//! lanes, or values consumed by the discard FSM) is popped while scanning,
//! freeing FIFO space that may unblock a region next cycle. A `None` from
//! `pop_kept` therefore must not be read as "nothing happened"; the drain
//! loops compare occupancy around the call instead.
//!
//! [`OutPort::pop_kept`]: crate::port::OutPort::pop_kept

use crate::lane::{Lane, StreamBody};
use crate::machine::Machine;
use crate::trace::TraceOp;
use revel_isa::MemTarget;

impl Machine {
    /// Moves data for source streams: loads (private + shared) and consts.
    /// Returns `true` iff any word moved or a stream-end flush landed.
    pub(crate) fn run_source_streams(&mut self, _now: u64) -> bool {
        let mut progress = false;
        let mut shared_budget = self.cfg.shared_spad_bw_words;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let lane = &mut self.lanes[li];
            let mut priv_budget = lane.cfg.spad_bw_words;
            let mut const_budget = lane.cfg.xfer_bw_words;
            let Lane { streams, in_ports, spad, events, .. } = lane;
            let mut starved = false;
            let mut sync_blocked = false;
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
                        while let Some(elem) = walker.peek() {
                            if *budget == 0 {
                                starved = true;
                                break;
                            }
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
                            let val = match target {
                                MemTarget::Private => spad.read_f64(elem.offset),
                                MemTarget::Shared => self.shared.read_f64(elem.offset),
                            };
                            if !port.push_word(val, elem.last_in_row) {
                                break;
                            }
                            if let Some(t) = &mut self.trace {
                                t.record(TraceOp::PushMem {
                                    lane: li as u8,
                                    port: *dst,
                                    target: *target,
                                    addr: elem.offset,
                                    row_end: elem.last_in_row,
                                });
                            }
                            walker.advance();
                            *budget -= 1;
                            progress = true;
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
                            progress |= *flushed;
                            if *flushed {
                                if let Some(t) = &mut self.trace {
                                    t.record(TraceOp::FlushIn { lane: li as u8, port: *dst });
                                }
                            }
                        }
                    }
                    StreamBody::Const { dst, values } => {
                        let port = &mut in_ports[*dst as usize];
                        while const_budget > 0 {
                            let Some(v) = values.front() else { break };
                            if !port.can_accept() || !port.push_word(*v, false) {
                                break;
                            }
                            if let Some(t) = &mut self.trace {
                                t.record(TraceOp::PushConst {
                                    lane: li as u8,
                                    port: *dst,
                                    bits: v.to_bits(),
                                });
                            }
                            values.pop_front();
                            const_budget -= 1;
                            progress = true;
                            events.port_words += 1;
                        }
                    }
                    _ => {}
                }
            }
            lane.bw_starved |= starved;
            lane.barrier_blocked |= sync_blocked;
        }
        progress
    }

    /// Moves data for drain streams: stores (private + shared), local
    /// XFERs, and inter-lane XFERs. Returns `true` iff any output-port
    /// state changed (including hidden pops of spent head vectors).
    pub(crate) fn run_drain_streams(&mut self, _now: u64) -> bool {
        let mut progress = false;
        let mut shared_budget = self.cfg.shared_spad_bw_words;
        let num_lanes = self.lanes.len();
        // Stores and local xfers (single-lane).
        for li in 0..num_lanes {
            let lane = &mut self.lanes[li];
            let mut priv_budget = lane.cfg.spad_bw_words;
            let mut xfer_budget = lane.cfg.xfer_bw_words;
            let Lane { streams, in_ports, out_ports, spad, events, .. } = lane;
            let mut starved = false;
            for stream in streams.iter_mut() {
                match &mut stream.body {
                    StreamBody::Store { src, target, walker, written } => {
                        let budget: &mut usize = match target {
                            MemTarget::Private => &mut priv_budget,
                            MemTarget::Shared => &mut shared_budget,
                        };
                        let port = &mut out_ports[*src as usize];
                        while let Some(elem) = walker.peek() {
                            if *budget == 0 {
                                if port.occupancy() > 0 {
                                    starved = true;
                                }
                                break;
                            }
                            let occ_before = port.occupancy();
                            let Some(v) = port.pop_kept() else {
                                if port.occupancy() != occ_before {
                                    progress = true;
                                    if let Some(t) = &mut self.trace {
                                        t.record(TraceOp::PopSpent { lane: li as u8, port: *src });
                                    }
                                }
                                break;
                            };
                            progress = true;
                            written.insert(elem.offset);
                            match target {
                                MemTarget::Private => {
                                    spad.write_f64(elem.offset, v);
                                    events.spad_words += 1;
                                }
                                MemTarget::Shared => {
                                    self.shared.write_f64(elem.offset, v);
                                    events.shared_spad_words += 1;
                                }
                            }
                            if let Some(t) = &mut self.trace {
                                t.record(TraceOp::PopStore {
                                    lane: li as u8,
                                    port: *src,
                                    target: *target,
                                    addr: elem.offset,
                                });
                            }
                            events.port_words += 1;
                            walker.advance();
                            *budget -= 1;
                        }
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
                                if out_ports[sp].occupancy() != occ_before {
                                    progress = true;
                                    if let Some(t) = &mut self.trace {
                                        t.record(TraceOp::PopSpent { lane: li as u8, port: *src });
                                    }
                                }
                                break;
                            };
                            progress = true;
                            let row_end = rows.step();
                            let ok = in_ports[dp].push_word(v, row_end);
                            debug_assert!(ok, "can_accept guaranteed space");
                            if let Some(t) = &mut self.trace {
                                t.record(TraceOp::XferWord {
                                    src_lane: li as u8,
                                    src_port: *src,
                                    dst_lane: li as u8,
                                    dst_port: *dst,
                                    row_end,
                                });
                            }
                            *remaining -= 1;
                            xfer_budget -= 1;
                            events.bus_words += 2; // bus out + bus in
                        }
                    }
                    _ => {}
                }
            }
            lane.bw_starved |= starved;
        }
        // Inter-lane XFERs (need two lanes mutably).
        for li in 0..num_lanes {
            let ri = (li + 1) % num_lanes;
            if ri == li {
                continue;
            }
            let (a, b) = if li < ri {
                let (left, right) = self.lanes.split_at_mut(ri);
                (&mut left[li], &mut right[0])
            } else {
                let (left, right) = self.lanes.split_at_mut(li);
                (&mut right[0], &mut left[ri])
            };
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
                            if a.out_ports[sp].occupancy() != occ_before {
                                progress = true;
                                if let Some(t) = &mut self.trace {
                                    t.record(TraceOp::PopSpent { lane: li as u8, port: *src });
                                }
                            }
                            break;
                        };
                        progress = true;
                        let row_end = rows.step();
                        let ok = b.in_ports[dp].push_word(v, row_end);
                        debug_assert!(ok, "can_accept guaranteed space");
                        if let Some(t) = &mut self.trace {
                            t.record(TraceOp::XferWord {
                                src_lane: li as u8,
                                src_port: *src,
                                dst_lane: ri as u8,
                                dst_port: *dst,
                                row_end,
                            });
                        }
                        *remaining -= 1;
                        budget -= 1;
                        a.events.bus_words += 2;
                    }
                }
            }
        }
        progress
    }

    /// Removes completed streams and frees their ports. Returns `true` iff
    /// any stream retired.
    pub(crate) fn retire_streams(&mut self) -> bool {
        let mut retired = false;
        let num_lanes = self.lanes.len();
        for li in 0..num_lanes {
            let mut to_free_right: Vec<u8> = Vec::new();
            {
                let lane = &mut self.lanes[li];
                let Lane { streams, in_busy, out_busy, .. } = lane;
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
                            to_free_right.push(*dst);
                        }
                    }
                    !done
                });
            }
            if !to_free_right.is_empty() {
                let ri = (li + 1) % num_lanes;
                for p in to_free_right {
                    self.lanes[ri].in_busy[p as usize] = false;
                }
            }
        }
        retired
    }
}
