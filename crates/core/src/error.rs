//! The unified error taxonomy for every user-facing engine path.
//!
//! Anything a caller can hand the engine — WLog text, DAX documents,
//! deadlines, budgets — flows through fallible APIs that return a
//! [`DecoError`] instead of panicking. The variants mirror the pipeline
//! stages of Figure 3: parsing, structural validation, translation to the
//! probabilistic IR, Monte-Carlo evaluation, and plan materialization.

use deco_wlog::machine::MachineError;
use deco_wlog::parser::ParseError;
use deco_wlog::program::WlogError;
use deco_workflow::dax::DaxError;

/// Every way a planning request can fail, by pipeline stage.
#[derive(Debug)]
pub enum DecoError {
    /// WLog source text did not parse (carries line/column and a caret
    /// snippet via [`ParseError`]).
    Parse(ParseError),
    /// The program parsed but is structurally unusable: missing goal,
    /// missing `forall` declaration, non-callable heads, wrong variable
    /// arity, ...
    Program(String),
    /// Translation to the probabilistic IR rejected a clause or an
    /// annotated-disjunction group (e.g. a degenerate histogram).
    Translate(String),
    /// The interpreter failed while evaluating a state.
    Eval(MachineError),
    /// A DAX workflow document was malformed.
    Dax(DaxError),
    /// Plan materialization or validation failed.
    Plan(String),
    /// The pipeline ran but no plan satisfies the constraints (within the
    /// search budget, if one was set).
    Infeasible(String),
    /// A serving front end refused the request because its admission
    /// queue is full (backpressure, not a planning failure): retry later
    /// or shed load upstream.
    Overloaded {
        /// Requests already waiting when this one arrived.
        queued: usize,
        /// The admission queue's capacity.
        capacity: usize,
    },
    /// The durable plan store failed: an unreadable WAL directory, a
    /// corrupt frame payload, or an I/O error while appending. Serving
    /// degrades (a shard falls back to memory-only operation) rather than
    /// panicking.
    Store(String),
    /// An inter-process transport failed: a shard worker pipe broke, a
    /// frame failed its checksum, or a peer spoke an unknown frame tag.
    /// The supervisor treats this as evidence of a crashed or wedged
    /// child — it never reaches a client response on the healthy path.
    Transport(String),
}

impl std::fmt::Display for DecoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecoError::Parse(e) => write!(f, "{e}"),
            DecoError::Program(m) => write!(f, "program error: {m}"),
            DecoError::Translate(m) => write!(f, "translation error: {m}"),
            DecoError::Eval(e) => write!(f, "evaluation error: {e}"),
            DecoError::Dax(e) => write!(f, "workflow error: {e}"),
            DecoError::Plan(m) => write!(f, "plan error: {m}"),
            DecoError::Infeasible(m) => write!(f, "infeasible: {m}"),
            DecoError::Overloaded { queued, capacity } => write!(
                f,
                "overloaded: admission queue full ({queued} waiting, capacity {capacity})"
            ),
            DecoError::Store(m) => write!(f, "store error: {m}"),
            DecoError::Transport(m) => write!(f, "transport error: {m}"),
        }
    }
}

impl std::error::Error for DecoError {}

impl From<ParseError> for DecoError {
    fn from(e: ParseError) -> Self {
        DecoError::Parse(e)
    }
}

impl From<MachineError> for DecoError {
    fn from(e: MachineError) -> Self {
        DecoError::Eval(e)
    }
}

impl From<DaxError> for DecoError {
    fn from(e: DaxError) -> Self {
        DecoError::Dax(e)
    }
}

impl From<WlogError> for DecoError {
    fn from(e: WlogError) -> Self {
        match e {
            WlogError::Parse(p) => DecoError::Parse(p),
            WlogError::Runtime(m) => DecoError::Eval(m),
            WlogError::Program(m) => DecoError::Program(m),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_wlog::program::WlogProgram;

    #[test]
    fn wlog_errors_map_to_their_stage() {
        let parse = WlogProgram::parse("minimize ???").unwrap_err();
        assert!(matches!(DecoError::from(parse), DecoError::Parse(_)));
        let program = WlogProgram::parse("cfg(T) forall task(T).")
            .unwrap()
            .validate()
            .unwrap_err();
        assert!(matches!(DecoError::from(program), DecoError::Program(_)));
        let runtime = WlogError::Runtime(MachineError("boom".into()));
        assert!(matches!(DecoError::from(runtime), DecoError::Eval(_)));
    }

    #[test]
    fn display_prefixes_identify_the_stage() {
        assert!(DecoError::Infeasible("x".into())
            .to_string()
            .starts_with("infeasible:"));
        assert!(DecoError::Plan("x".into())
            .to_string()
            .starts_with("plan error:"));
        assert!(DecoError::Translate("x".into())
            .to_string()
            .starts_with("translation error:"));
        let overloaded = DecoError::Overloaded {
            queued: 64,
            capacity: 64,
        };
        assert!(overloaded.to_string().starts_with("overloaded:"));
        assert!(overloaded.to_string().contains("64 waiting"));
        assert!(DecoError::Transport("pipe closed".into())
            .to_string()
            .starts_with("transport error:"));
    }
}
