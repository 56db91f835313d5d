//! Diagnostic codes, severities, locations, and the [`Diagnostic`] record
//! every lint emits.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but possibly intentional; the simulator will still run.
    Warning,
    /// A program that will hang, compute garbage, or exceed the hardware
    /// model; the pre-simulation gate rejects it.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Counts the identifiers it is given (helper for [`codes!`]).
macro_rules! count_codes {
    () => (0usize);
    ($head:ident $($tail:ident)*) => (1usize + count_codes!($($tail)*));
}

/// Declares the diagnostic-code registry in one place: the `Code` enum,
/// [`Code::ALL`], [`Code::as_str`], [`Code::parse`], [`Code::severity`],
/// [`Code::summary`] and [`Code::explain`] are all generated from a single
/// `code => severity, summary, explain;` listing, so a new code cannot be
/// half-registered (the old hand-maintained triple listing let `ALL` and
/// `as_str` drift from the enum).
macro_rules! codes {
    ($( $(#[$meta:meta])* $name:ident => $severity:ident, $summary:expr, $explain:expr; )+) => {
        /// Stable diagnostic codes. Codes are append-only: a released code
        /// never changes meaning, so tests and suppression lists can match
        /// on them. `V015`–`V019` (the retired taint certifier's) are
        /// retired and never reused.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[allow(missing_docs)] // each code is documented by summary()/explain()
        pub enum Code {
            $( $(#[$meta])* $name, )+
        }

        impl Code {
            /// Every code, in order.
            pub const ALL: [Code; count_codes!($($name)+)] = [$(Code::$name,)+];

            /// The stable textual form (`"V001"`).
            pub fn as_str(&self) -> &'static str {
                match self {
                    $( Code::$name => stringify!($name), )+
                }
            }

            /// Parses the stable textual form back into a code
            /// (case-insensitive). `None` for unknown codes.
            pub fn parse(s: &str) -> Option<Code> {
                Code::ALL.into_iter().find(|c| c.as_str().eq_ignore_ascii_case(s))
            }

            /// The severity this code always carries.
            pub fn severity(&self) -> Severity {
                match self {
                    $( Code::$name => Severity::$severity, )+
                }
            }

            /// One-line summary of the invariant the code checks.
            pub fn summary(&self) -> &'static str {
                match self {
                    $( Code::$name => $summary, )+
                }
            }

            /// A longer human explanation: why the invariant matters and
            /// what the dynamic failure mode would be.
            pub fn explain(&self) -> &'static str {
                match self {
                    $( Code::$name => $explain, )+
                }
            }
        }
    };
}

codes! {
    V001 => Error,
        "region input port is never fed while its configuration is active",
        "A region fires only when every bound input port presents data. \
         An input port with no Load/Const/XFER feeding it while the \
         configuration is active starves the region forever: the \
         simulation hangs until the cycle limit.";
    V002 => Warning,
        "stream feeds an input port no active region reads",
        "Data delivered to a port no region of the active configuration \
         reads sits in the FIFO until the next reconfiguration, where it \
         becomes stale input for an unrelated region.";
    V003 => Warning,
        "region output port is never drained",
        "An output port with no Store/XFER draining it fills its FIFO and \
         back-pressures the region, which then deadlocks every region \
         sharing its input streams.";
    V004 => Error,
        "operator joins values of different accumulation rates",
        "An accumulator emits one value per reduction window, so its \
         consumers run at a lower firing rate than the raw input stream. \
         An operator joining operands of different accumulation depths \
         would need one operand to stall for the other's window, which \
         the statically-timed systolic fabric cannot do.";
    V005 => Error,
        "stream address pattern leaves the scratchpad",
        "A load/store whose affine pattern dereferences an address \
         outside the private or shared scratchpad reads garbage or \
         faults; the bound is checked against the lane-specialized \
         pattern (lane address scaling included).";
    V006 => Error,
        "two store streams write overlapping addresses without a barrier",
        "Store streams in the same barrier epoch drain concurrently; \
         if their address sets overlap, the final memory contents depend \
         on drain interleaving. Separate them with BarrierScratch/Wait.";
    V007 => Warning,
        "store may overwrite addresses an earlier load still reads",
        "A store issued after a load that reads overlapping addresses \
         can overwrite them before the load's pattern walker gets there \
         (write-after-read). The hazard is suppressed when the store's \
         data provably flows from that load through the fabric, because \
         dataflow ordering then serializes the accesses.";
    V008 => Warning,
        "dataflow-graph node does not reach any output",
        "A node whose value never reaches an Output wastes a PE (and, \
         for Input nodes, silently consumes port bandwidth) without \
         affecting results — almost always a leftover from editing the \
         dataflow graph.";
    V009 => Error,
        "SetAccumLen names a region the active configuration lacks",
        "SetAccumLen with a region index the active configuration does \
         not define is silently ignored by the hardware; the intended \
         accumulator keeps its old length and sums the wrong window.";
    V010 => Error,
        "data command issued before any Configure",
        "Loads, stores, consts, XFERs and SetAccumLen target ports and \
         regions of the *active* configuration; before the first \
         Configure there is none, so the command's effect is undefined.";
    V011 => Warning,
        "systolic routes share a mesh link after negotiation",
        "Systolic dependences need dedicated mesh links to keep their \
         static timing; links still shared after negotiated routing \
         serialize transfers and break the II=1 pipeline guarantee.";
    V012 => Error,
        "output port narrower than the region vector written to it",
        "A region writes vectors of its unroll width; an output port \
         whose hardware width is smaller cannot carry them at rate, so \
         the model's bandwidth accounting (and real hardware) breaks.";
    V013 => Error,
        "dataflow-graph node references a later or missing node",
        "Dataflow-graph evaluation is one forward pass in node order; an \
         argument referencing a later or non-existent node would read \
         uninitialized state.";
    V014 => Error,
        "configuration does not map onto the lane fabric",
        "The configuration needs more PEs, temporal instruction slots, \
         or routable links than the lane provides; Machine::run would \
         reject it at spatial-compile time.";
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the program a diagnostic points. All coordinates are optional:
/// a lint fills in what it knows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Location {
    /// Lane the offending command targets.
    pub lane: Option<u8>,
    /// Configuration index (into `RevelProgram::configs`).
    pub config: Option<usize>,
    /// Region index within the configuration.
    pub region: Option<usize>,
    /// Node id within the region's dataflow graph.
    pub node: Option<u32>,
    /// Control-step index of the offending command.
    pub command: Option<usize>,
}

impl Location {
    /// A location naming only a control step.
    pub fn command(index: usize) -> Self {
        Location { command: Some(index), ..Location::default() }
    }

    /// A location naming a configuration.
    pub fn config(config: usize) -> Self {
        Location { config: Some(config), ..Location::default() }
    }

    /// A location naming a region of a configuration.
    pub fn region(config: usize, region: usize) -> Self {
        Location { config: Some(config), region: Some(region), ..Location::default() }
    }

    /// Adds the lane coordinate.
    pub fn on_lane(mut self, lane: u8) -> Self {
        self.lane = Some(lane);
        self
    }

    /// Adds the node coordinate.
    pub fn at_node(mut self, node: u32) -> Self {
        self.node = Some(node);
        self
    }

    /// Adds the command coordinate.
    pub fn at_command(mut self, index: usize) -> Self {
        self.command = Some(index);
        self
    }
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(c) = self.config {
            parts.push(format!("config {c}"));
        }
        if let Some(r) = self.region {
            parts.push(format!("region {r}"));
        }
        if let Some(n) = self.node {
            parts.push(format!("node {n}"));
        }
        if let Some(i) = self.command {
            parts.push(format!("command {i}"));
        }
        if let Some(l) = self.lane {
            parts.push(format!("lane {l}"));
        }
        if parts.is_empty() {
            f.write_str("program")
        } else {
            f.write_str(&parts.join(", "))
        }
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Program coordinates.
    pub location: Location,
    /// Specific message (names the ports/addresses/regions involved).
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(code: Code, location: Location, message: impl Into<String>) -> Self {
        Diagnostic { code, location, message: message.into() }
    }

    /// The severity (derived from the code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {} (at {})", self.severity(), self.code, self.message, self.location)
    }
}

/// True if any diagnostic in the slice is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity() == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_and_unique() {
        // Append-only registry: the textual forms of released codes are
        // pinned forever, and a retired code is never reused.
        assert_eq!(Code::ALL.len(), 14);
        let strs: std::collections::HashSet<_> = Code::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(strs.len(), Code::ALL.len());
        assert_eq!(Code::V001.as_str(), "V001");
        assert_eq!(Code::V014.as_str(), "V014");
        for retired in ["V015", "V016", "V017", "V018", "V019"] {
            assert_eq!(Code::parse(retired), None, "{retired} is retired");
        }
    }

    #[test]
    fn every_code_round_trips_through_parse() {
        for c in Code::ALL {
            assert_eq!(Code::parse(c.as_str()), Some(c));
            assert_eq!(Code::parse(&c.as_str().to_lowercase()), Some(c));
        }
        assert_eq!(Code::parse("V999"), None);
        assert_eq!(Code::parse(""), None);
        assert_eq!(Code::parse("bogus"), None);
    }

    #[test]
    fn every_code_has_prose() {
        for c in Code::ALL {
            assert!(!c.summary().is_empty());
            assert!(c.explain().len() > c.summary().len());
        }
    }

    #[test]
    fn display_includes_code_and_location() {
        let d =
            Diagnostic::new(Code::V001, Location::region(0, 1).on_lane(2), "in-port 3 never fed");
        let s = d.to_string();
        assert!(s.contains("error[V001]"), "{s}");
        assert!(s.contains("config 0"), "{s}");
        assert!(s.contains("lane 2"), "{s}");
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let w = Diagnostic::new(Code::V002, Location::default(), "w");
        let e = Diagnostic::new(Code::V005, Location::default(), "e");
        assert!(!has_errors(std::slice::from_ref(&w)));
        assert!(has_errors(&[w, e]));
    }
}
