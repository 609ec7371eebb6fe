//! Lock modes, the Table 4.1 compatibility matrix, and lockable
//! resources.

use std::fmt;

/// A lock mode. `S`/`X` form the conventional 2PL baseline; `Rc`/`Ra`/`Wa`
/// are the paper's production-system modes (§4.3):
///
/// > (i) LHS of a production must be executed before its RHS.
/// > (ii) Data access in LHS is read only.
/// > (iii) Data access in RHS is read-write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Shared read (conventional 2PL).
    S,
    /// Exclusive write (conventional 2PL).
    X,
    /// Read lock for condition (LHS) evaluation.
    Rc,
    /// Read lock for action (RHS) execution.
    Ra,
    /// Write lock for action (RHS) execution.
    Wa,
}

impl LockMode {
    /// All modes, in display order.
    pub const ALL: [LockMode; 5] = [
        LockMode::S,
        LockMode::X,
        LockMode::Rc,
        LockMode::Ra,
        LockMode::Wa,
    ];

    /// The production-protocol modes of Table 4.1, in the paper's order.
    pub const TABLE_4_1: [LockMode; 3] = [LockMode::Rc, LockMode::Ra, LockMode::Wa];

    /// `true` for read modes.
    pub fn is_read(self) -> bool {
        matches!(self, LockMode::S | LockMode::Rc | LockMode::Ra)
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::S => "S",
            LockMode::X => "X",
            LockMode::Rc => "Rc",
            LockMode::Ra => "Ra",
            LockMode::Wa => "Wa",
        };
        f.write_str(s)
    }
}

/// The compatibility function: may `requested` be granted while another
/// transaction holds `held`?
///
/// For the production modes this is exactly Table 4.1 of the paper —
/// note the deliberate **asymmetry**: `compatible(held = Rc, requested =
/// Wa)` is `true` (the enhanced-parallelism case) while
/// `compatible(held = Wa, requested = Rc)` is `false` (a condition may
/// not begin reading under an in-flight writer).
///
/// Mixing the `S`/`X` baseline with the production modes is not
/// meaningful within one protocol; for safety any such mix is treated as
/// incompatible except read/read.
pub fn compatible(held: LockMode, requested: LockMode) -> bool {
    use LockMode::*;
    match (held, requested) {
        // Conventional 2PL.
        (S, S) => true,
        (S, X) | (X, S) | (X, X) => false,
        // Table 4.1 (held is the row, requested the column).
        (Rc, Rc) | (Rc, Ra) => true,
        (Rc, Wa) => true, // the paper's key relaxation
        (Ra, Rc) | (Ra, Ra) => true,
        (Ra, Wa) => false,
        (Wa, Rc) | (Wa, Ra) | (Wa, Wa) => false,
        // Cross-protocol mixes: only read/read passes.
        (a, b) => a.is_read() && b.is_read(),
    }
}

/// Renders Table 4.1 ("The New Lock Compatibility Matrix") as the paper
/// prints it: rows = lock held by `P_i`, columns = lock requested by
/// `P_j`, `Y`/`N` cells.
pub fn compatibility_table() -> String {
    let modes = LockMode::TABLE_4_1;
    let mut out = String::from("held\\req |");
    for m in modes {
        out.push_str(&format!(" {m:>3}"));
    }
    out.push('\n');
    out.push_str("---------+------------\n");
    for held in modes {
        out.push_str(&format!("{held:>8} |"));
        for req in modes {
            out.push_str(&format!(
                " {:>3}",
                if compatible(held, req) { "Y" } else { "N" }
            ));
        }
        out.push('\n');
    }
    out
}

/// A lockable resource: a tuple (WME) or a whole relation (class).
///
/// Relation-granularity locks implement the paper's escalation story for
/// negative dependence: "In this case a lock can be placed at the
/// relation level. Such a lock is equivalent to locking the appropriate
/// tuple in the 'SYSTEM-CATALOG' relation."
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceId {
    /// One working-memory element, by id.
    Tuple(u64),
    /// A whole relation (class), by the id the engine assigns the class.
    Relation(u32),
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceId::Tuple(t) => write!(f, "t{t}"),
            ResourceId::Relation(r) => write!(f, "R{r}"),
        }
    }
}

/// Which locking protocol a parallel engine runs (Figures 4.1 vs 4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Conventional 2PL: `S` for condition and action reads, `X` for
    /// writes (Figure 4.1 / Theorem 2).
    TwoPhase,
    /// The improved scheme: `Rc` for condition reads, `Ra`/`Wa` for the
    /// RHS (Figure 4.2 / §4.3).
    RcRaWa,
}

impl Protocol {
    /// Mode used while evaluating the LHS.
    pub fn condition_read(self) -> LockMode {
        match self {
            Protocol::TwoPhase => LockMode::S,
            Protocol::RcRaWa => LockMode::Rc,
        }
    }

    /// Mode used for RHS reads.
    pub fn action_read(self) -> LockMode {
        match self {
            Protocol::TwoPhase => LockMode::S,
            Protocol::RcRaWa => LockMode::Ra,
        }
    }

    /// Mode used for RHS writes.
    pub fn action_write(self) -> LockMode {
        match self {
            Protocol::TwoPhase => LockMode::X,
            Protocol::RcRaWa => LockMode::Wa,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    #[test]
    fn table_4_1_exactly() {
        // Paper's Table 4.1, row = held, column = requested.
        let expected = [
            (Rc, Rc, true),
            (Rc, Ra, true),
            (Rc, Wa, true), // the enhanced-parallelism cell
            (Ra, Rc, true),
            (Ra, Ra, true),
            (Ra, Wa, false),
            (Wa, Rc, false),
            (Wa, Ra, false),
            (Wa, Wa, false),
        ];
        for (held, req, ok) in expected {
            assert_eq!(compatible(held, req), ok, "held={held} requested={req}");
        }
    }

    #[test]
    fn two_phase_baseline() {
        assert!(compatible(S, S));
        assert!(!compatible(S, X));
        assert!(!compatible(X, S));
        assert!(!compatible(X, X));
    }

    #[test]
    fn asymmetry_is_the_point() {
        assert!(compatible(Rc, Wa));
        assert!(!compatible(Wa, Rc));
    }

    #[test]
    fn cross_protocol_mixes_are_conservative() {
        assert!(compatible(S, Rc), "read/read passes");
        assert!(!compatible(S, Wa));
        assert!(!compatible(X, Rc));
        assert!(!compatible(Wa, S));
    }

    #[test]
    fn table_renders_paper_shape() {
        let t = compatibility_table();
        assert!(t.contains("Rc"));
        // Row Wa is all N.
        let wa_row = t.lines().last().unwrap();
        assert_eq!(wa_row.matches('N').count(), 3);
        // Row Rc is all Y.
        let rc_row = t
            .lines()
            .find(|l| l.trim_start().starts_with("Rc"))
            .unwrap();
        assert_eq!(rc_row.matches('Y').count(), 3);
    }

    #[test]
    fn protocol_mode_mapping() {
        assert_eq!(Protocol::TwoPhase.condition_read(), S);
        assert_eq!(Protocol::TwoPhase.action_write(), X);
        assert_eq!(Protocol::RcRaWa.condition_read(), Rc);
        assert_eq!(Protocol::RcRaWa.action_read(), Ra);
        assert_eq!(Protocol::RcRaWa.action_write(), Wa);
    }

    #[test]
    fn resource_display() {
        assert_eq!(ResourceId::Tuple(4).to_string(), "t4");
        assert_eq!(ResourceId::Relation(2).to_string(), "R2");
    }
}
