//! Process-wide failpoint registry for crash-consistency torture.
//!
//! A *failpoint* is a named site in crash-critical code — a segment
//! append about to hit the disk, a snapshot about to rename over its
//! predecessor, a reply about to be written to a socket. Production
//! code calls [`hit`] at the site; when nothing is armed that call is a
//! single relaxed atomic load and a never-taken branch, so the
//! instrumented binary is the shipped binary. A torture harness arms
//! sites with an [`Action`] — return an injected [`std::io::Error`],
//! sleep, panic, or hard-abort the process at that exact instruction —
//! and the same binary now fails exactly where the schedule says it must.
//!
//! Arms are scoped three ways:
//!
//! * **by site name** — `persist.append.mid-write`;
//! * **by context filter** — sites report a context string (a tier's
//!   directory, a server's port) via [`hit_with`]; an arm with a
//!   non-empty filter only fires when the filter is a substring of that
//!   context. This is what lets concurrent tests in one process arm the
//!   same site without tripping each other: each filters on its own
//!   unique temp dir or port.
//! * **by hit count** — `@N` fires on exactly the Nth hit, `@N+` on
//!   every hit from the Nth on, `@%N` on every Nth hit. The trigger is
//!   how a schedule says "crash on the *third* append", the `+` form is
//!   how a flapping shard keeps crashing after every respawn, and the
//!   `%` form is how a drill says "fail one job in ten".
//!
//! Cross-process arming uses the [`ENV_VAR`] environment variable: a
//! supervisor sets `REVEL_FAILPOINTS=persist.append.mid-write=abort@2`
//! on a spawned shard and the shard's [`init_from_env`] arms it at
//! startup. The spec grammar is
//! `site[#filter]=action[@N[+]|@%N] [; more]` with actions `err`,
//! `panic`, `abort`, and `delay:MS`.
//!
//! [`FailPlan::from_seed`] derives a deterministic crash schedule from a
//! seed — same seed, same site, same action, same trigger — which is
//! what makes torture-harness reports reproducible.

use revel_isa::Rng;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable read by [`init_from_env`]; a supervisor sets it
/// on a spawned shard to arm failpoints in that process.
pub const ENV_VAR: &str = "REVEL_FAILPOINTS";

/// What an armed failpoint does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Return an injected `io::Error` (kind `Other`) from [`hit`].
    InjectError,
    /// Sleep for the given number of milliseconds, then succeed.
    Delay(u64),
    /// Panic at the site: the stand-in for a bug in the code that follows,
    /// caught by whatever unwind fence guards the real thing.
    Panic,
    /// Hard-abort the process at the site — no destructors, no flush;
    /// the closest safe stand-in for power loss at that instruction.
    Abort,
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::InjectError => write!(f, "err"),
            Action::Delay(ms) => write!(f, "delay:{ms}"),
            Action::Panic => write!(f, "panic"),
            Action::Abort => write!(f, "abort"),
        }
    }
}

/// Which of an arm's (1-based) hits fire its action.
#[derive(Clone, Copy)]
enum Trigger {
    /// The Nth hit exactly (`@N`).
    At(u64),
    /// Every hit from the Nth on (`@N+`).
    From(u64),
    /// Every Nth hit (`@%N`).
    Every(u64),
}

impl Trigger {
    fn fires(self, hit: u64) -> bool {
        match self {
            Trigger::At(n) => hit == n,
            Trigger::From(n) => hit >= n,
            Trigger::Every(n) => hit.is_multiple_of(n),
        }
    }
}

/// One armed failpoint.
struct Arm {
    site: String,
    /// Context substring filter; empty matches every context.
    filter: String,
    action: Action,
    trigger: Trigger,
    hits: u64,
}

/// Fast-path gate: `false` means the registry is empty and [`hit`] is a
/// load-and-branch no-op.
static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Arm>> = Mutex::new(Vec::new());

fn registry() -> std::sync::MutexGuard<'static, Vec<Arm>> {
    // A panic while holding the lock (can't happen today — no user code
    // runs under it) must not poison every later hit into a panic storm.
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

/// Report that execution reached the failpoint `site`.
///
/// Returns `Ok(())` when unarmed (the common case — one relaxed atomic
/// load), the injected error for an armed `err` action, `Ok(())` after
/// sleeping for `delay`, and never for `abort`.
///
/// # Panics
/// When an armed `panic` action fires — that is the action.
#[inline]
pub fn hit(site: &str) -> io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    slow_hit(site, "")
}

/// [`hit`] with a lazily-built context string (a tier's directory, a
/// server's port) that arms can filter on. The closure only runs when
/// at least one failpoint is armed, so the fast path stays allocation-free.
#[inline]
pub fn hit_with(site: &str, ctx: impl FnOnce() -> String) -> io::Result<()> {
    if !ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    let ctx = ctx();
    slow_hit(site, &ctx)
}

#[cold]
fn slow_hit(site: &str, ctx: &str) -> io::Result<()> {
    let mut fire = None;
    {
        let mut reg = registry();
        for arm in reg.iter_mut() {
            if arm.site != site || (!arm.filter.is_empty() && !ctx.contains(&arm.filter)) {
                continue;
            }
            arm.hits += 1;
            if arm.trigger.fires(arm.hits) && fire.is_none() {
                fire = Some(arm.action);
            }
        }
    }
    match fire {
        None => Ok(()),
        Some(Action::InjectError) => {
            Err(io::Error::other(format!("failpoint '{site}': injected I/O error")))
        }
        Some(Action::Delay(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
            Ok(())
        }
        Some(Action::Panic) => panic!("failpoint '{site}': injected panic"),
        Some(Action::Abort) => {
            eprintln!("failpoint '{site}': hard abort");
            std::process::abort();
        }
    }
}

/// Arm `site` with `action`, firing at the 1-based hit `trigger`
/// (`every_hit` keeps it firing on every later hit too). A non-empty
/// `filter` restricts the arm to contexts containing it as a substring.
pub fn arm(site: &str, filter: &str, action: Action, trigger: u64, every_hit: bool) {
    let n = trigger.max(1);
    push_arm(site, filter, action, if every_hit { Trigger::From(n) } else { Trigger::At(n) });
}

fn push_arm(site: &str, filter: &str, action: Action, trigger: Trigger) {
    let mut reg = registry();
    reg.push(Arm { site: site.to_string(), filter: filter.to_string(), action, trigger, hits: 0 });
    ARMED.store(true, Ordering::Relaxed);
}

/// Remove every arm for `site` whose filter equals `filter` exactly.
/// Tests disarm their own arms this way without disturbing arms other
/// concurrent tests planted on the same site.
pub fn disarm(site: &str, filter: &str) {
    let mut reg = registry();
    reg.retain(|a| !(a.site == site && a.filter == filter));
    if reg.is_empty() {
        ARMED.store(false, Ordering::Relaxed);
    }
}

/// `true` when at least one failpoint is armed.
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Parse and arm a `;`-separated spec string:
/// `site[#filter]=action[@N[+]|@%N]` with actions `err`, `panic`,
/// `abort`, `delay:MS`. Returns the number of failpoints armed.
pub fn arm_spec(spec: &str) -> Result<usize, String> {
    let mut armed = 0usize;
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (lhs, rhs) =
            part.split_once('=').ok_or_else(|| format!("'{part}': missing '=action'"))?;
        let (site, filter) = match lhs.split_once('#') {
            Some((s, f)) => (s.trim(), f.trim()),
            None => (lhs.trim(), ""),
        };
        if site.is_empty() {
            return Err(format!("'{part}': empty site name"));
        }
        let (action_str, trigger_str) = match rhs.split_once('@') {
            Some((a, t)) => (a.trim(), Some(t.trim())),
            None => (rhs.trim(), None),
        };
        let action = match action_str {
            "err" => Action::InjectError,
            "panic" => Action::Panic,
            "abort" => Action::Abort,
            other => match other.strip_prefix("delay:") {
                Some(ms) => {
                    Action::Delay(ms.parse().map_err(|_| format!("'{part}': bad delay '{ms}'"))?)
                }
                None => return Err(format!("'{part}': unknown action '{other}'")),
            },
        };
        let trigger = match trigger_str {
            None => Trigger::From(1),
            Some(t) => {
                let (num, form): (&str, fn(u64) -> Trigger) =
                    match (t.strip_prefix('%'), t.strip_suffix('+')) {
                        (Some(n), _) => (n, Trigger::Every),
                        (None, Some(n)) => (n, Trigger::From),
                        (None, None) => (t, Trigger::At),
                    };
                let n: u64 = num.parse().map_err(|_| format!("'{part}': bad trigger '{t}'"))?;
                if n == 0 {
                    return Err(format!("'{part}': trigger is 1-based"));
                }
                form(n)
            }
        };
        push_arm(site, filter, action, trigger);
        armed += 1;
    }
    Ok(armed)
}

/// Arm failpoints from the [`ENV_VAR`] environment variable, if set.
/// Returns the number armed (0 when the variable is absent or empty).
pub fn init_from_env() -> Result<usize, String> {
    match std::env::var(ENV_VAR) {
        Ok(spec) if !spec.trim().is_empty() => arm_spec(&spec),
        _ => Ok(0),
    }
}

/// A deterministic, seed-derived crash schedule: which site to arm,
/// with what action, at which hit. Same seed ⇒ same plan, which is what
/// makes a torture run's per-seed report reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailPlan {
    /// Failpoint site to arm.
    pub site: String,
    /// Action the site performs when triggered.
    pub action: Action,
    /// 1-based hit index at which the action fires.
    pub trigger: u64,
    /// `true`: the action fires on every hit from `trigger` on (a
    /// *flapping* plan — the victim keeps failing after every respawn).
    pub every_hit: bool,
}

impl FailPlan {
    /// Derive a plan from `seed`. Roughly one seed in four is a
    /// *flapping* plan (repeat-abort on `flap_site`, the shape that must
    /// drive a supervisor's restart circuit to permanent eviction); one
    /// in four injects a transient `io::Error` at an `error_site` (the
    /// victim must survive it); the rest hard-abort once at a
    /// `crash_site` on hit 1–3 (the victim must respawn and recover).
    pub fn from_seed(
        seed: u64,
        crash_sites: &[&str],
        error_sites: &[&str],
        flap_site: &str,
    ) -> FailPlan {
        let mut rng = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut draw = |n: usize| rng.next_u64() % n as u64;
        match draw(4) {
            0 => FailPlan {
                site: flap_site.to_string(),
                action: Action::Abort,
                trigger: 1,
                every_hit: true,
            },
            1 => FailPlan {
                site: error_sites[draw(error_sites.len()) as usize].to_string(),
                action: Action::InjectError,
                trigger: 1 + draw(2),
                every_hit: false,
            },
            _ => FailPlan {
                site: crash_sites[draw(crash_sites.len()) as usize].to_string(),
                action: Action::Abort,
                trigger: 1 + draw(3),
                every_hit: false,
            },
        }
    }

    /// Render the plan as an [`arm_spec`] string (round-trips exactly).
    pub fn spec(&self) -> String {
        format!(
            "{}={}@{}{}",
            self.site,
            self.action,
            self.trigger,
            if self.every_hit { "+" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test in this module arms under its own unique filter so the
    /// suite can run multi-threaded without cross-talk (the same
    /// discipline the rest of the workspace uses).
    fn unique_filter(tag: &str) -> String {
        format!("fp-test-{tag}-{}", std::process::id())
    }

    #[test]
    fn unarmed_hit_is_ok_and_armed_flag_tracks_registry() {
        assert!(hit("test.nothing.armed").is_ok());
        let f = unique_filter("flag");
        arm("test.flag.site", &f, Action::InjectError, 1, false);
        assert!(armed());
        disarm("test.flag.site", &f);
        assert!(hit("test.flag.site").is_ok());
    }

    #[test]
    fn trigger_counts_hits_and_fires_exactly_once_without_plus() {
        let f = unique_filter("once");
        arm("test.once.site", &f, Action::InjectError, 3, false);
        let ctx = || f.clone();
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 1 passes");
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 2 passes");
        assert!(hit_with("test.once.site", ctx).is_err(), "hit 3 fires");
        assert!(hit_with("test.once.site", ctx).is_ok(), "hit 4 passes again");
        disarm("test.once.site", &f);
    }

    #[test]
    fn every_hit_mode_keeps_firing_from_the_trigger_on() {
        let f = unique_filter("every");
        arm("test.every.site", &f, Action::InjectError, 2, true);
        let ctx = || f.clone();
        assert!(hit_with("test.every.site", ctx).is_ok());
        assert!(hit_with("test.every.site", ctx).is_err());
        assert!(hit_with("test.every.site", ctx).is_err());
        disarm("test.every.site", &f);
    }

    #[test]
    fn context_filter_scopes_an_arm_to_matching_contexts() {
        let f = unique_filter("scope");
        arm("test.scope.site", &f, Action::InjectError, 1, true);
        assert!(hit_with("test.scope.site", || "unrelated-ctx".to_string()).is_ok());
        assert!(hit_with("test.scope.site", || format!("/tmp/{f}/segment")).is_err());
        assert!(hit("test.scope.site").is_ok(), "empty ctx never matches a filtered arm");
        disarm("test.scope.site", &f);
    }

    #[test]
    fn delay_action_sleeps_then_succeeds() {
        let f = unique_filter("delay");
        arm("test.delay.site", &f, Action::Delay(20), 1, false);
        let t0 = std::time::Instant::now();
        assert!(hit_with("test.delay.site", || f.clone()).is_ok());
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        disarm("test.delay.site", &f);
    }

    #[test]
    #[should_panic(expected = "failpoint 'test.panic.site': injected panic")]
    fn panic_action_panics_at_the_site() {
        let f = unique_filter("panic");
        arm("test.panic.site", &f, Action::Panic, 1, false);
        let _ = hit_with("test.panic.site", || f.clone());
    }

    #[test]
    fn periodic_trigger_fires_on_every_nth_hit() {
        let f = unique_filter("periodic");
        arm_spec(&format!("test.periodic.site#{f}=err@%3")).expect("valid spec");
        let fired: Vec<bool> =
            (0..7).map(|_| hit_with("test.periodic.site", || f.clone()).is_err()).collect();
        assert_eq!(fired, [false, false, true, false, false, true, false]);
        disarm("test.periodic.site", &f);
    }

    #[test]
    fn spec_grammar_parses_actions_filters_and_triggers() {
        let f = unique_filter("spec");
        let n = arm_spec(&format!(
            "test.spec.a#{f}=err@2; test.spec.b#{f}=delay:5; test.spec.c#{f}=abort@4+; \
             test.spec.d#{f}=panic@9"
        ))
        .expect("valid spec");
        assert_eq!(n, 4);
        let ctx = || f.clone();
        assert!(hit_with("test.spec.a", ctx).is_ok());
        assert!(hit_with("test.spec.a", ctx).is_err(), "err fires at hit 2");
        assert!(hit_with("test.spec.b", ctx).is_ok(), "delay with default @1+ fires and passes");
        // test.spec.c is abort@4 — do NOT hit it four times here.
        for site in ["test.spec.a", "test.spec.b", "test.spec.c", "test.spec.d"] {
            disarm(site, &f);
        }
    }

    #[test]
    fn bad_specs_are_rejected_with_a_reason() {
        for bad in [
            "noequals",
            "site=frobnicate",
            "site=err@0",
            "site=err@x",
            "site=delay:y",
            "=err",
            "site=err@%0",
            "site=err@%",
            "site=err@%3+",
        ] {
            assert!(arm_spec(bad).is_err(), "spec '{bad}' must be rejected");
        }
    }

    #[test]
    fn fail_plans_are_deterministic_and_round_trip_through_specs() {
        let crash = ["c.one", "c.two", "c.three"];
        let eio = ["e.one", "e.two"];
        let mut saw_flap = false;
        let mut saw_err = false;
        let mut saw_crash = false;
        for seed in 0..64u64 {
            let a = FailPlan::from_seed(seed, &crash, &eio, "flap.site");
            let b = FailPlan::from_seed(seed, &crash, &eio, "flap.site");
            assert_eq!(a, b, "same seed, same plan");
            assert!(a.trigger >= 1);
            match a.action {
                Action::Abort if a.every_hit => {
                    assert_eq!(a.site, "flap.site");
                    saw_flap = true;
                }
                Action::Abort => {
                    assert!(crash.contains(&a.site.as_str()));
                    saw_crash = true;
                }
                Action::InjectError => {
                    assert!(eio.contains(&a.site.as_str()));
                    saw_err = true;
                }
                Action::Delay(_) | Action::Panic => panic!("from_seed never emits {}", a.action),
            }
            // spec() round-trips through the grammar.
            let spec = a.spec();
            let (lhs, _) = spec.split_once('=').expect("spec has an action");
            assert_eq!(lhs, a.site);
        }
        assert!(saw_flap && saw_err && saw_crash, "64 seeds cover all three plan shapes");
    }

    /// The seed → plan mapping is a published fact: CI diffs torture
    /// summaries that embed these strings, so the generator behind
    /// `from_seed` may change only if this table changes with it. Site
    /// lists as the torture harness passes them.
    #[test]
    fn seeds_one_to_eight_derive_the_pinned_plans() {
        let crash = [
            "persist.append.mid-write",
            "persist.append.before-flush",
            "serve.reply.pre-write",
            "engine.serve.disk-lookup",
        ];
        let eio = ["persist.append.before-write", "persist.append.before-flush"];
        let specs: Vec<String> = (1..=8)
            .map(|seed| FailPlan::from_seed(seed, &crash, &eio, "serve.reply.pre-write").spec())
            .collect();
        assert_eq!(
            specs,
            [
                "persist.append.before-flush=err@1",
                "engine.serve.disk-lookup=abort@1",
                "serve.reply.pre-write=abort@3",
                "persist.append.before-flush=err@2",
                "serve.reply.pre-write=abort@1+",
                "persist.append.before-flush=err@2",
                "persist.append.before-flush=err@1",
                "persist.append.before-flush=err@1",
            ]
        );
    }
}
