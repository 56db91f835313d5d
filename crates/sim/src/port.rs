//! Programmable vector ports: the FIFOs with hardware FSMs that realize
//! inductive dependence semantics (reuse, discard, stream predication).

use revel_dfg::{VecVal, MAX_VEC_WIDTH};
use revel_isa::{ProdMode, RateFsm};
use std::collections::VecDeque;

/// An input port: words stream in, vectors (with predication) stream out to
/// the fabric.
///
/// The port owns two FSMs configured per stream:
/// * **vector assembly + stream predication**: incoming words are staged
///   into a vector of the port's width; an inductive inner-row boundary
///   flushes a partial vector padded with predicated-off lanes (Fig. 12);
/// * **reuse (consumption rate)**: the value at the FIFO head is presented
///   `reuse(k)` times before being popped, where `k` counts head values —
///   this is the "FIFOs with programmable reuse" of Fig. 3.
#[derive(Debug, Clone)]
pub struct InPort {
    width: usize,
    capacity: usize,
    fifo: VecDeque<VecVal>,
    /// Words staged towards the next vector: `staging[..staged]`. Lanes at
    /// and beyond `staged` hold 0.0, the value of a padded lane.
    staging: [f64; MAX_VEC_WIDTH],
    staged: usize,
    reuse: RateFsm,
    head_uses_left: i64,
    head_index: i64,
    pending_flush: bool,
    /// Words accepted since the port was (re)bound to a stream.
    words_in: u64,
}

impl InPort {
    /// A port of `width` words with a FIFO of `capacity` vectors.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn new(width: usize, capacity: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width));
        InPort {
            width,
            capacity,
            fifo: VecDeque::new(),
            staging: [0.0; MAX_VEC_WIDTH],
            staged: 0,
            reuse: RateFsm::ONCE,
            head_uses_left: 0,
            head_index: 0,
            pending_flush: false,
            words_in: 0,
        }
    }

    /// Vector width in words.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Configures the reuse FSM for a newly bound stream and resets
    /// assembly state.
    pub fn bind_stream(&mut self, reuse: RateFsm) {
        self.reuse = reuse;
        self.head_index = 0;
        self.head_uses_left = 0;
        self.words_in = 0;
        // Data already in the FIFO (from a previous stream) keeps draining;
        // staging should be empty between streams.
        debug_assert!(self.staged == 0, "staging not flushed between streams");
    }

    /// True if the port can accept another word this cycle.
    ///
    /// A deferred (pending) flush is resolvable exactly when the FIFO has
    /// space; `push_word` resolves it before staging the new word. Staging
    /// can only be full while a flush is pending, so this is the complete
    /// condition.
    pub fn can_accept(&self) -> bool {
        if self.pending_flush {
            self.fifo_has_space()
        } else {
            debug_assert!(self.staged < self.width);
            true
        }
    }

    /// Whether a full vector slot is free (staging flush target).
    fn fifo_has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    /// Pushes one word into the staging buffer; `row_end` marks the last
    /// element of an inductive inner row, which triggers stream-predication
    /// padding.
    ///
    /// Returns `false` (and consumes nothing) if the port cannot accept the
    /// word this cycle; the caller (a stream engine) retries next cycle.
    pub fn push_word(&mut self, value: f64, row_end: bool) -> bool {
        // Resolve any deferred flush before staging new data.
        if !self.resolve_pending() {
            return false;
        }
        debug_assert!(self.staged < self.width);
        self.staging[self.staged] = value;
        self.staged += 1;
        self.words_in += 1;
        if (self.staged == self.width || row_end) && !self.flush_staged() {
            // FIFO full: the word is consumed but the vector flush is
            // deferred to a later cycle.
            self.pending_flush = true;
        }
        true
    }

    fn resolve_pending(&mut self) -> bool {
        if self.pending_flush {
            if !self.flush_staged() {
                return false;
            }
            self.pending_flush = false;
        }
        true
    }

    /// Flushes the staging buffer (padded with predicated-off lanes when
    /// partial) into the FIFO. Returns `false` if the FIFO is full.
    fn flush_staged(&mut self) -> bool {
        if self.staged == 0 {
            return true;
        }
        if !self.fifo_has_space() {
            return false;
        }
        let pred = ((1u16 << self.staged) - 1) as u8;
        self.fifo.push_back(VecVal::with_pred(&self.staging[..self.width], pred));
        self.staging = [0.0; MAX_VEC_WIDTH];
        self.staged = 0;
        true
    }

    /// Forces any staged words out as a (possibly padded) vector — called
    /// at stream end. Returns `false` if the FIFO was full (retry later).
    pub fn flush_at_stream_end(&mut self) -> bool {
        if !self.resolve_pending() {
            return false;
        }
        self.flush_staged()
    }

    /// Retries any deferred staging flush; called once per cycle by the
    /// lane so stalled producers cannot strand staged data. Returns `true`
    /// iff the flush landed this call (i.e. port state changed).
    pub fn tick(&mut self) -> bool {
        if self.pending_flush && self.flush_staged() {
            self.pending_flush = false;
            return true;
        }
        false
    }

    /// True when the currently bound reuse FSM is the trivial
    /// once-per-value rate (safe to rebind over leftover FIFO data).
    pub fn reuse_is_trivial(&self) -> bool {
        self.reuse.is_trivial()
    }

    /// Value available for the fabric to consume this cycle, if any.
    pub fn peek(&self) -> Option<VecVal> {
        self.fifo.front().copied()
    }

    /// Number of buffered vectors.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// True if nothing is buffered or staged.
    pub fn is_drained(&self) -> bool {
        self.fifo.is_empty() && self.staged == 0
    }

    /// Drops the vector at the FIFO head (fault injection: a lost link
    /// beat). Any partial reuse progress on the head is discarded with it.
    /// Returns `true` iff a vector was actually dropped.
    pub fn drop_front(&mut self) -> bool {
        if self.fifo.pop_front().is_some() {
            self.head_uses_left = 0;
            true
        } else {
            false
        }
    }

    /// Inverts bit `bit % 64` of the first valid lane buffered at the FIFO
    /// head (fault injection: a corrupted stream value). Returns `true` iff
    /// a lane was flipped.
    pub fn corrupt_front(&mut self, bit: u8) -> bool {
        let Some(head) = self.fifo.front() else {
            return false;
        };
        let Some((lane, v)) = head.iter_valid().next() else {
            return false;
        };
        let flipped = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
        self.fifo.front_mut().expect("head exists").set_raw(lane, flipped);
        true
    }

    /// Consumes one presentation of the head value, honouring the reuse
    /// FSM: the head is popped only after its programmed number of uses.
    ///
    /// # Panics
    /// Panics if the port is empty.
    pub fn take(&mut self) -> VecVal {
        self.take_elems(1)
    }

    /// Consumes one presentation covering `elems` logical inner-loop
    /// elements. Reuse counts are in *element* units: the port FSM compares
    /// remaining iterations against the consumer's vector progress (§IV-B),
    /// so a scalar value broadcast to a W-wide region with E valid lanes
    /// burns E uses per fire.
    ///
    /// # Panics
    /// Panics if the port is empty or `elems < 1`.
    pub fn take_elems(&mut self, elems: i64) -> VecVal {
        assert!(elems >= 1, "must consume at least one element");
        let head = *self.fifo.front().expect("take from empty port");
        if self.head_uses_left == 0 {
            self.head_uses_left = self.reuse.count_at(self.head_index);
            self.head_index += 1;
        }
        self.head_uses_left -= elems;
        if self.head_uses_left <= 0 {
            self.head_uses_left = 0;
            self.fifo.pop_front();
        }
        head
    }
}

/// An output port: vectors from the fabric stream in; store/XFER streams
/// drain valid lanes as scalar words, honouring a production-rate
/// (keep-first-of-group discard) FSM.
#[derive(Debug, Clone)]
pub struct OutPort {
    width: usize,
    capacity: usize,
    fifo: VecDeque<VecVal>,
    /// Lane cursor within the head vector.
    head_lane: usize,
    discard: RateFsm,
    mode: ProdMode,
    /// Position within the current production group.
    group_pos: i64,
    /// Group index (outer induction variable of the production FSM).
    group_index: i64,
}

impl OutPort {
    /// A port of `width` words with a FIFO of `capacity` vectors.
    ///
    /// # Panics
    /// Panics if `width` is 0 or exceeds [`MAX_VEC_WIDTH`].
    pub fn new(width: usize, capacity: usize) -> Self {
        assert!((1..=MAX_VEC_WIDTH).contains(&width));
        OutPort {
            width,
            capacity,
            fifo: VecDeque::new(),
            head_lane: 0,
            discard: RateFsm::ONCE,
            mode: ProdMode::KeepFirst,
            group_pos: 0,
            group_index: 0,
        }
    }

    /// Vector width in words.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Configures the production/discard FSM for a newly bound drain
    /// stream.
    pub fn bind_stream(&mut self, discard: RateFsm) {
        self.bind_stream_mode(discard, ProdMode::KeepFirst);
    }

    /// Configures the production FSM with an explicit phase selection.
    pub fn bind_stream_mode(&mut self, discard: RateFsm, mode: ProdMode) {
        self.discard = discard;
        self.mode = mode;
        self.group_pos = 0;
        self.group_index = 0;
    }

    /// True if the fabric can push a result vector this cycle.
    pub fn has_space(&self) -> bool {
        self.fifo.len() < self.capacity
    }

    /// Accepts a result vector from the fabric. Vectors with no valid lane
    /// (e.g. non-emitting accumulator fires) are dropped silently.
    ///
    /// # Panics
    /// Panics if the port is full (fabric must check [`OutPort::has_space`]).
    pub fn push(&mut self, v: VecVal) {
        if !v.any_valid() {
            return;
        }
        assert!(self.has_space(), "push to full output port");
        self.fifo.push_back(v);
    }

    /// Number of buffered vectors.
    pub fn occupancy(&self) -> usize {
        self.fifo.len()
    }

    /// True if nothing is buffered.
    pub fn is_drained(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Pops the next *kept* valid scalar value for the drain stream,
    /// applying the production FSM: of every `discard(j)` valid values,
    /// the first is returned, the rest are dropped. Returns `None` when no
    /// value can be produced this call.
    pub fn pop_kept(&mut self) -> Option<f64> {
        loop {
            let (value, exhausted) = {
                let head = self.fifo.front()?;
                let mut lane = self.head_lane;
                let mut found = None;
                while lane < head.width() {
                    if let Some(v) = head.get(lane) {
                        found = Some((v, lane));
                        break;
                    }
                    lane += 1;
                }
                match found {
                    Some((v, l)) => (Some(v), l + 1 >= head.width()),
                    None => (None, true),
                }
            };
            match value {
                None => {
                    // Head had no remaining valid lanes.
                    self.fifo.pop_front();
                    self.head_lane = 0;
                    continue;
                }
                Some(v) => {
                    // Advance the lane cursor past the lane we just used.
                    let head = self.fifo.front().expect("head exists");
                    let mut lane = self.head_lane;
                    while lane < head.width() && head.get(lane).is_none() {
                        lane += 1;
                    }
                    self.head_lane = lane + 1;
                    if exhausted || self.head_lane >= head.width() {
                        self.fifo.pop_front();
                        self.head_lane = 0;
                    }
                    // Production FSM: phase selection within each group.
                    let group_len = self.discard.count_at(self.group_index);
                    let keep = match self.mode {
                        ProdMode::KeepFirst => self.group_pos == 0,
                        ProdMode::DropFirst => self.group_pos != 0,
                    };
                    self.group_pos += 1;
                    if self.group_pos >= group_len {
                        self.group_pos = 0;
                        self.group_index += 1;
                    }
                    if keep {
                        return Some(v);
                    }
                    // Dropped: loop to find the next kept value? No — one
                    // value consumed per call; dropped values cost no
                    // bandwidth downstream, so keep scanning.
                    continue;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inport_assembles_vectors() {
        let mut p = InPort::new(4, 4);
        p.bind_stream(RateFsm::ONCE);
        for i in 0..4 {
            assert!(p.push_word(i as f64, false));
        }
        let v = p.peek().unwrap();
        assert_eq!(v.valid_count(), 4);
        assert_eq!(v.get(2), Some(2.0));
    }

    #[test]
    fn inport_predication_padding() {
        let mut p = InPort::new(4, 4);
        p.bind_stream(RateFsm::ONCE);
        assert!(p.push_word(1.0, false));
        assert!(p.push_word(2.0, true)); // inner row ends after 2 of 4
        let v = p.peek().unwrap();
        assert_eq!(v.valid_count(), 2);
        assert_eq!(v.pred(), 0b0011);
        assert_eq!(v.get(3), None);
    }

    #[test]
    fn inport_fifo_capacity() {
        let mut p = InPort::new(1, 2);
        p.bind_stream(RateFsm::ONCE);
        assert!(p.push_word(1.0, false));
        assert!(p.push_word(2.0, false));
        // FIFO full (2) + staging takes one more.
        assert!(p.push_word(3.0, false));
        // Now staging full and FIFO full: reject.
        assert!(!p.push_word(4.0, false));
        assert_eq!(p.occupancy(), 2);
    }

    #[test]
    fn inport_reuse_fsm() {
        let mut p = InPort::new(1, 4);
        p.bind_stream(RateFsm::fixed(3));
        p.push_word(7.0, false);
        p.push_word(8.0, false);
        for _ in 0..3 {
            assert_eq!(p.take().get(0), Some(7.0));
        }
        assert_eq!(p.take().get(0), Some(8.0));
    }

    #[test]
    fn inport_inductive_reuse() {
        // reuse counts 3, 2, 1 — like `inv` reused n-k times in Cholesky.
        let mut p = InPort::new(1, 4);
        p.bind_stream(RateFsm::inductive(3, -1));
        for v in [1.0, 2.0, 3.0] {
            p.push_word(v, false);
        }
        let taken: Vec<f64> = (0..6).map(|_| p.take().get(0).unwrap()).collect();
        assert_eq!(taken, [1.0, 1.0, 1.0, 2.0, 2.0, 3.0]);
        assert!(p.is_drained());
    }

    #[test]
    fn outport_pops_valid_lanes() {
        let mut p = OutPort::new(4, 4);
        p.bind_stream(RateFsm::ONCE);
        p.push(VecVal::with_pred(&[1.0, 2.0, 3.0, 4.0], 0b1011));
        assert_eq!(p.pop_kept(), Some(1.0));
        assert_eq!(p.pop_kept(), Some(2.0));
        assert_eq!(p.pop_kept(), Some(4.0)); // lane 2 predicated off
        assert_eq!(p.pop_kept(), None);
        assert!(p.is_drained());
    }

    #[test]
    fn outport_drops_invalid_vectors() {
        let mut p = OutPort::new(2, 4);
        p.push(VecVal::invalid(2));
        assert_eq!(p.occupancy(), 0);
    }

    #[test]
    fn outport_discard_fsm_keeps_first() {
        let mut p = OutPort::new(1, 8);
        p.bind_stream(RateFsm::fixed(3)); // keep 1 of every 3
        for i in 0..6 {
            p.push(VecVal::splat(i as f64, 1));
        }
        assert_eq!(p.pop_kept(), Some(0.0));
        assert_eq!(p.pop_kept(), Some(3.0));
        assert_eq!(p.pop_kept(), None);
    }

    #[test]
    fn outport_inductive_discard() {
        // groups of 3, 2, 1: keep values 0, 3, 5.
        let mut p = OutPort::new(1, 8);
        p.bind_stream(RateFsm::inductive(3, -1));
        for i in 0..6 {
            p.push(VecVal::splat(i as f64, 1));
        }
        assert_eq!(p.pop_kept(), Some(0.0));
        assert_eq!(p.pop_kept(), Some(3.0));
        assert_eq!(p.pop_kept(), Some(5.0));
        assert_eq!(p.pop_kept(), None);
    }

    #[test]
    fn inport_stream_end_flush() {
        let mut p = InPort::new(4, 4);
        p.bind_stream(RateFsm::ONCE);
        p.push_word(5.0, false);
        assert!(p.peek().is_none());
        assert!(p.flush_at_stream_end());
        assert_eq!(p.peek().unwrap().valid_count(), 1);
    }
}
