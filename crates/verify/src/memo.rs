//! The process-wide **verdict memo**: `(program, machine config)` → the
//! program-level lint findings, computed once per distinct content.
//!
//! The program lints are a pure function of `(program, config)` and cost
//! far more than a short simulation, so repeated runs of one program
//! (benchmark iterations, the differential oracle's second run, batch
//! sweeps) reuse the first verdict. It has one reader: the simulator's
//! `Machine::run` gate, which rejects a program on its error-severity
//! findings.
//!
//! The key is the [`structural_id`] of `(program, config)`, recomputed
//! from content on every lookup: a verdict follows what a program *is*, so
//! a mutated or cloned-then-edited program never inherits one. The map
//! holds one small `Arc<Vec<Diagnostic>>` per distinct pair and is never
//! evicted — the same growth the simulator-side map it replaces had.

use crate::{Diagnostic, Verifier};
use revel_fabric::RevelConfig;
use revel_prog::{structural_id, RevelProgram, StructuralId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

type Memo = Mutex<HashMap<StructuralId, Arc<Vec<Diagnostic>>>>;

static MEMO: OnceLock<Memo> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// The memoized findings of [`Verifier::program_only`] on `(program, cfg)`
/// — errors first, exactly what an uncached `verify` returns.
pub fn verdict(program: &RevelProgram, cfg: &RevelConfig) -> Arc<Vec<Diagnostic>> {
    let key = structural_id(&(program, cfg));
    let memo = MEMO.get_or_init(Default::default);
    if let Some(hit) = memo.lock().expect("verdict memo poisoned").get(&key) {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(hit);
    }
    // Lint outside the lock. The verifier is deterministic, so a racing
    // duplicate computes identical findings; only the fill that lands
    // counts as a miss (see [`VerdictMemoStats`]).
    let diags = Arc::new(Verifier::program_only().verify(program, cfg));
    match memo.lock().expect("verdict memo poisoned").entry(key) {
        Entry::Vacant(v) => {
            MISSES.fetch_add(1, Ordering::Relaxed);
            v.insert(Arc::clone(&diags));
            diags
        }
        Entry::Occupied(o) => {
            HITS.fetch_add(1, Ordering::Relaxed);
            Arc::clone(o.get())
        }
    }
}

/// One consistent read of the verdict memo's counters.
///
/// The split is exact, as for the simulator's schedule cache: a miss is
/// counted only by the fill that lands in the map, so `misses == entries`
/// always, and a racing duplicate lint (whose result is discarded) counts
/// as a hit. Hits are therefore `lookups - entries` — deterministic for
/// every worker count, which is what lets harness footers print this on a
/// byte-diffed stdout stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerdictMemoStats {
    /// Lookups served by an existing entry (including lost fill races).
    pub hits: u64,
    /// Lint runs that created a new entry (`== entries`).
    pub misses: u64,
    /// Distinct `(program, config)` verdicts currently held.
    pub entries: usize,
}

impl fmt::Display for VerdictMemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verdict memo: {} hit(s), {} miss(es), {} entries",
            self.hits, self.misses, self.entries
        )
    }
}

/// Snapshot of the process-wide verdict memo counters.
pub fn verdict_memo_stats() -> VerdictMemoStats {
    // Misses are counted under this lock, so they agree with the length.
    let memo = MEMO.get_or_init(Default::default).lock().expect("verdict memo poisoned");
    VerdictMemoStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        entries: memo.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::*;
    use crate::{has_errors, Code, VERIFY_CALLS};

    /// Lint passes the current thread runs inside `f`.
    fn passes_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
        let before = VERIFY_CALLS.with(std::cell::Cell::get);
        let r = f();
        (r, VERIFY_CALLS.with(std::cell::Cell::get) - before)
    }

    /// A clean load → negate → store program; `name` keeps each test's
    /// memo entries its own.
    fn clean(name: &str) -> RevelProgram {
        let mut p = neg_program(&[0], 6);
        p.name = name.to_string();
        push1(&mut p, load_priv(0, 8, 0));
        push1(&mut p, store_priv(6, 8, 8));
        p
    }

    #[test]
    fn a_verdict_is_linted_once_and_read_thereafter() {
        let (p, cfg) = (clean("memo-once"), single_lane());
        let (cold, passes) = passes_in(|| verdict(&p, &cfg));
        assert_eq!(passes, 1, "a cold lookup runs the program lints once");
        assert_eq!(*cold, Verifier::program_only().verify(&p, &cfg));
        let (warm, passes) = passes_in(|| verdict(&p, &cfg));
        assert_eq!(passes, 0, "a warm lookup lints nothing");
        assert!(Arc::ptr_eq(&cold, &warm));
        // An equal program built independently is the same entry.
        assert!(Arc::ptr_eq(&cold, &verdict(&clean("memo-once"), &cfg)));
    }

    #[test]
    fn a_verdict_follows_content_not_the_object() {
        let (mut p, cfg) = (clean("memo-content"), single_lane());
        let first = verdict(&p, &cfg);
        assert!(first.is_empty(), "{first:?}");
        // The same value, one command longer: a load that walks off the
        // end of the private scratchpad.
        push1(&mut p, load_priv(cfg.lane.spad_words as i64 - 4, 8, 0));
        let broken = verdict(&p, &cfg);
        assert!(has_errors(&broken), "{broken:?}");
        assert!(codes(&broken).contains(&Code::V005), "{broken:?}");
        p.control.pop();
        assert!(Arc::ptr_eq(&first, &verdict(&p, &cfg)), "back to the first content's entry");
        // The machine configuration is part of the content.
        let wide = RevelConfig { num_lanes: 2, ..single_lane() };
        assert!(!Arc::ptr_eq(&first, &verdict(&p, &wide)));
    }

    #[test]
    fn racing_fills_land_once() {
        let (p, cfg) = (clean("memo-race"), single_lane());
        let barrier = std::sync::Barrier::new(4);
        let verdicts: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        verdict(&p, &cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        for v in &verdicts[1..] {
            assert!(Arc::ptr_eq(&verdicts[0], v), "every racer is handed the fill that landed");
        }
        // Read under the fill's lock, so it holds whatever else is running.
        let stats = verdict_memo_stats();
        assert_eq!(stats.misses, stats.entries as u64);
        assert_eq!(
            VerdictMemoStats { hits: 40, misses: 5, entries: 5 }.to_string(),
            "verdict memo: 40 hit(s), 5 miss(es), 5 entries"
        );
    }
}
