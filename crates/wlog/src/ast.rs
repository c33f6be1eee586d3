//! Terms and clauses.

use std::fmt;

/// A WLog term.
///
/// Numbers are uniformly `f64` — WLog programs manipulate execution times,
/// prices and probabilities, and the paper's examples never rely on bignum
/// integer semantics. Atoms starting with a lowercase letter, variables
/// with an uppercase letter or `_` (ProLog convention, Section 4.1).
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Constant symbol: `montage`, `root`, `m1_small`.
    Atom(String),
    /// Logic variable: `Tid`, `Cost`, `_`.
    Var(String),
    /// Numeric constant.
    Num(f64),
    /// Compound term: `cost(Tid, Vid, C)`.
    Compound(String, Vec<Term>),
    /// Proper or partial list: `[a, b | T]`. `tail` is `None` for proper
    /// lists and holds the tail variable otherwise.
    List(Vec<Term>, Option<Box<Term>>),
}

impl Term {
    pub fn atom(name: impl Into<String>) -> Term {
        Term::Atom(name.into())
    }

    pub fn var(name: impl Into<String>) -> Term {
        Term::Var(name.into())
    }

    pub fn num(x: f64) -> Term {
        Term::Num(x)
    }

    pub fn compound(name: impl Into<String>, args: Vec<Term>) -> Term {
        Term::Compound(name.into(), args)
    }

    pub fn list(items: Vec<Term>) -> Term {
        Term::List(items, None)
    }

    pub fn nil() -> Term {
        Term::List(Vec::new(), None)
    }

    /// Functor name and arity, for indexing: `cost(T,V,C)` → `("cost", 3)`,
    /// `foo` → `("foo", 0)`.
    pub fn functor(&self) -> Option<(&str, usize)> {
        match self {
            Term::Atom(a) => Some((a, 0)),
            Term::Compound(f, args) => Some((f, args.len())),
            _ => None,
        }
    }

    /// Whether the term contains no variables (after substitution walking,
    /// which the caller is responsible for).
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Atom(_) | Term::Num(_) => true,
            Term::Var(_) => false,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
            Term::List(items, tail) => {
                items.iter().all(Term::is_ground) && tail.as_ref().is_none_or(|t| t.is_ground())
            }
        }
    }

    /// Collect the variable names occurring in the term.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(v.clone());
            }
            Term::Compound(_, args) => args.iter().for_each(|a| a.vars(out)),
            Term::List(items, tail) => {
                items.iter().for_each(|a| a.vars(out));
                if let Some(t) = tail {
                    t.vars(out);
                }
            }
            _ => {}
        }
    }

    /// Extract the numeric value if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Term::Num(x) => Some(*x),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Atom(a) => write!(f, "{a}"),
            Term::Var(v) => write!(f, "{v}"),
            Term::Num(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{}", *x as i64)
                } else {
                    write!(f, "{x}")
                }
            }
            Term::Compound(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Term::List(items, tail) => {
                write!(f, "[")?;
                for (i, a) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                if let Some(t) = tail {
                    write!(f, "|{t}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// A definite clause `head :- body`. A fact is a clause with empty body.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    pub head: Term,
    pub body: Vec<Term>,
}

impl Clause {
    pub fn fact(head: Term) -> Clause {
        Clause {
            head,
            body: Vec::new(),
        }
    }

    pub fn rule(head: Term, body: Vec<Term>) -> Clause {
        Clause { head, body }
    }
}

impl fmt::Display for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.head)?;
        if !self.body.is_empty() {
            write!(f, " :- ")?;
            for (i, g) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        write!(f, ".")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functor_extraction() {
        assert_eq!(Term::atom("foo").functor(), Some(("foo", 0)));
        let c = Term::compound("cost", vec![Term::var("T"), Term::num(1.0)]);
        assert_eq!(c.functor(), Some(("cost", 2)));
        assert_eq!(Term::var("X").functor(), None);
        assert_eq!(Term::num(3.0).functor(), None);
    }

    #[test]
    fn groundness() {
        assert!(Term::atom("a").is_ground());
        assert!(!Term::var("X").is_ground());
        assert!(Term::compound("f", vec![Term::num(1.0)]).is_ground());
        assert!(!Term::compound("f", vec![Term::var("X")]).is_ground());
        assert!(!Term::List(vec![Term::atom("a")], Some(Box::new(Term::var("T")))).is_ground());
    }

    #[test]
    fn vars_are_collected_once() {
        let t = Term::compound("f", vec![Term::var("X"), Term::var("Y"), Term::var("X")]);
        let mut vs = Vec::new();
        t.vars(&mut vs);
        assert_eq!(vs, vec!["X".to_string(), "Y".to_string()]);
    }

    #[test]
    fn display_round_trips_readably() {
        let c = Clause::rule(
            Term::compound("p", vec![Term::var("X")]),
            vec![Term::compound("q", vec![Term::var("X"), Term::num(2.0)])],
        );
        assert_eq!(c.to_string(), "p(X) :- q(X,2).");
        let l = Term::List(vec![Term::num(1.0)], Some(Box::new(Term::var("T"))));
        assert_eq!(l.to_string(), "[1|T]");
    }
}
