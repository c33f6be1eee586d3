//! The probabilistic intermediate representation and its Monte-Carlo
//! evaluator (Sections 5.1–5.2, Algorithm 1).
//!
//! A WLog program is translated into ProbLog-style weighted rules. The
//! translation gives every WLog rule probability 1 (a *certain* clause),
//! so the only uncertainty is in **annotated disjunctions** ("groups"):
//! mutually exclusive alternatives, exactly one of which holds per
//! realization — the paper's expansion of a task's execution time into one
//! `p_j : exetime(Tid,Vid,T_j)` fact per histogram bin.
//!
//! Exact ProbLog inference is intractable for large programs (the number of
//! proofs grows exponentially), so the paper adopts Monte-Carlo
//! approximation: sample a realization, run the deterministic interpreter
//! on it, and average the query outcome. Sampling the realization *first*
//! and solving deterministically is equivalent to sampling from found
//! proofs for these program classes and has the advantage that one
//! realization is one plain SLD query.

use crate::ast::{Clause, Term};
use crate::machine::{Database, Machine, MachineError};
use crate::program::{Constraint, ConstraintKind, Goal};
use deco_prob::{CdfSampler, DecoRng};
use std::sync::Arc;

/// A probabilistic logic program.
#[derive(Debug, Clone, Default)]
pub struct ProbProgram {
    /// Rules with probability 1.0 (the deterministic translation gives
    /// every rule probability 1.0, Section 5.1).
    pub certain: Vec<Clause>,
    /// Annotated disjunctions: per group, `(probability, fact)`
    /// alternatives normalized to sum 1.
    pub groups: Vec<Vec<(f64, Term)>>,
}

impl ProbProgram {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push_certain(&mut self, c: Clause) -> Result<(), MachineError> {
        check_callable(&c.head)?;
        self.certain.push(c);
        Ok(())
    }

    /// Add a group of mutually exclusive alternatives; weights are
    /// normalized.
    pub fn push_group(&mut self, alts: Vec<(f64, Term)>) -> Result<(), MachineError> {
        if alts.is_empty() {
            return Err(MachineError("empty annotated disjunction".into()));
        }
        let mut total = 0.0;
        for (p, t) in &alts {
            if !p.is_finite() || *p < 0.0 {
                return Err(MachineError(format!("bad alternative weight {p}")));
            }
            check_callable(t)?;
            total += p;
        }
        if total <= 0.0 {
            return Err(MachineError("group must carry positive mass".into()));
        }
        self.groups
            .push(alts.into_iter().map(|(p, t)| (p / total, t)).collect());
        Ok(())
    }
}

fn check_callable(head: &Term) -> Result<(), MachineError> {
    if head.functor().is_none() {
        return Err(MachineError(format!("rule head is not callable: {head}")));
    }
    Ok(())
}

/// Evaluates queries against a probabilistic program with one
/// interpreter, which reads the current realization from its chosen-
/// alternative buffer.
///
/// Cloning is cheap: the compiled program and the samplers are shared, so
/// every search worker can own an evaluator and mutate only its state
/// facts and its stacks.
#[derive(Debug, Clone)]
pub struct Evaluator {
    pub machine: Machine,
    sampling: Arc<Sampling>,
}

/// What a realization is drawn from.
#[derive(Debug)]
struct Sampling {
    /// One precomputed CDF sampler per annotated-disjunction group:
    /// selecting an alternative is a binary search instead of an O(group)
    /// scan, and picks the same alternative for the same draw.
    groups: Vec<CdfSampler>,
}

impl Evaluator {
    /// Build an evaluator. Fails (instead of panicking) when a certain
    /// clause's head is not callable — possible when a `ProbProgram` is
    /// assembled directly rather than through the checked `push_*` methods.
    pub fn new(program: ProbProgram) -> Result<Self, MachineError> {
        let mut db = Database::new();
        for c in &program.certain {
            db.try_assert(c.clone())?;
        }
        // Validate every group before compiling any, so the first bad
        // alternative is reported in program order.
        for g in &program.groups {
            if g.is_empty() {
                return Err(MachineError("empty annotated disjunction".into()));
            }
            for (_, t) in g {
                check_callable(t)?;
            }
        }
        for g in &program.groups {
            let alts: Vec<Term> = g.iter().map(|(_, t)| t.clone()).collect();
            db.add_group(&alts)?;
        }
        let sampling = Sampling {
            groups: program
                .groups
                .iter()
                .map(|g| CdfSampler::from_probs(g.iter().map(|(p, _)| *p)))
                .collect(),
        };
        Ok(Evaluator {
            machine: Machine::new(db),
            sampling: Arc::new(sampling),
        })
    }

    /// Replace the search-state facts of one functor (e.g. `configs/3`)
    /// with a new set — how the solver moves between states (Algorithm 2,
    /// line 4). Every fact must have exactly the functor/arity being
    /// swapped, otherwise stale facts would leak between states.
    pub fn set_state_facts(
        &mut self,
        functor: &str,
        arity: usize,
        facts: Vec<Term>,
    ) -> Result<(), MachineError> {
        let db = &mut self.machine.db;
        db.retract_all(functor, arity);
        for f in facts {
            if f.functor() != Some((functor, arity)) {
                return Err(MachineError(format!(
                    "state fact {f} does not match {functor}/{arity}"
                )));
            }
            db.try_assert(Clause::fact(f))?;
        }
        Ok(())
    }

    /// Sample one realization: one alternative per group, in group order.
    fn sample_realization(&mut self, rng: &mut DecoRng) {
        let m = &mut self.machine;
        m.chosen.clear();
        for sampler in &self.sampling.groups {
            m.chosen.push(sampler.sample_index(rng) as u32);
        }
    }

    /// One realization's value of `var` under the first solution of
    /// `query`; `None` when the query fails.
    pub fn sample_value(
        &mut self,
        query: &Term,
        var: &str,
        rng: &mut DecoRng,
    ) -> Result<Option<f64>, MachineError> {
        self.sample_realization(rng);
        let mut out = None;
        self.machine.run(query, &mut |a| {
            out = a.num(var);
            false
        })?;
        Ok(out)
    }

    /// Draw `iters` realizations of a value query; failures surface as an
    /// error (a goal query must be satisfiable in every realization).
    pub fn value_samples(
        &mut self,
        query: &Term,
        var: &str,
        iters: usize,
        rng: &mut DecoRng,
    ) -> Result<Vec<f64>, MachineError> {
        if iters == 0 {
            return Err(MachineError(
                "Monte-Carlo iteration count must be positive".into(),
            ));
        }
        let mut out = Vec::with_capacity(iters);
        for _ in 0..iters {
            match self.sample_value(query, var, rng)? {
                Some(x) => out.push(x),
                None => {
                    return Err(MachineError(format!(
                        "query {query} failed in a sampled realization"
                    )))
                }
            }
        }
        Ok(out)
    }

    /// Algorithm 1, goal branch: mean of the goal value over `iters`
    /// realizations.
    pub fn goal_value(
        &mut self,
        goal: &Goal,
        iters: usize,
        rng: &mut DecoRng,
    ) -> Result<f64, MachineError> {
        let samples = self.value_samples(&goal.query, &goal.var, iters, rng)?;
        Ok(deco_prob::stats::mean(&samples))
    }

    /// Algorithm 1, constraint branch. Returns `(satisfied, value)` where
    /// the value is the constraint probability (probabilistic kinds) or the
    /// expected value (deterministic kinds).
    pub fn constraint(
        &mut self,
        cons: &Constraint,
        iters: usize,
        rng: &mut DecoRng,
    ) -> Result<(bool, f64), MachineError> {
        match cons.kind {
            ConstraintKind::Deadline { percentile, bound }
            | ConstraintKind::Budget { percentile, bound } => {
                let mut hits = 0usize;
                for _ in 0..iters {
                    match self.sample_value(&cons.query, &cons.var, rng)? {
                        Some(x) if x <= bound => hits += 1,
                        _ => {}
                    }
                }
                let p = hits as f64 / iters as f64;
                Ok((p >= percentile, p))
            }
            ConstraintKind::AtMost { bound } => {
                let samples = self.value_samples(&cons.query, &cons.var, iters, rng)?;
                let mean = deco_prob::stats::mean(&samples);
                Ok((mean <= bound, mean))
            }
            ConstraintKind::AtLeast { bound } => {
                let samples = self.value_samples(&cons.query, &cons.var, iters, rng)?;
                let mean = deco_prob::stats::mean(&samples);
                Ok((mean >= bound, mean))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_clauses, parse_query};
    use crate::program::GoalKind;
    use deco_prob::rng::seeded;

    fn clause(src: &str) -> Clause {
        parse_clauses(src).unwrap().pop().unwrap()
    }

    #[test]
    fn groups_are_mutually_exclusive() {
        let mut p = ProbProgram::new();
        p.push_group(vec![
            (0.5, parse_query("speed(10)").unwrap()),
            (0.5, parse_query("speed(20)").unwrap()),
        ])
        .unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(3);
        // Exactly one speed per realization.
        for _ in 0..100 {
            e.sample_realization(&mut rng);
            let sols = e
                .machine
                .solve_all(&parse_query("speed(X)").unwrap())
                .unwrap();
            assert_eq!(sols.len(), 1);
        }
    }

    #[test]
    fn goal_mean_over_group() {
        // exetime is 10 w.p. 0.25 and 20 w.p. 0.75 -> mean cost 17.5 * price 2 = 35.
        let mut p = ProbProgram::new();
        p.push_group(vec![
            (0.25, parse_query("exetime(t0, 10)").unwrap()),
            (0.75, parse_query("exetime(t0, 20)").unwrap()),
        ])
        .unwrap();
        p.push_certain(clause("cost(C) :- exetime(t0, T), C is T*2."))
            .unwrap();
        let goal = Goal {
            kind: GoalKind::Minimize,
            var: "C".into(),
            query: parse_query("cost(C)").unwrap(),
        };
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(4);
        let mean = e.goal_value(&goal, 20_000, &mut rng).unwrap();
        assert!((mean - 35.0).abs() < 0.5, "got {mean}");
    }

    #[test]
    fn deadline_constraint_uses_percentile_semantics() {
        // X = 8 w.p. 0.9, X = 12 w.p. 0.1. P(X <= 10) = 0.9.
        let mut p = ProbProgram::new();
        p.push_group(vec![
            (0.9, parse_query("time(8)").unwrap()),
            (0.1, parse_query("time(12)").unwrap()),
        ])
        .unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(5);
        let cons = |pct: f64| Constraint {
            var: "T".into(),
            query: parse_query("time(T)").unwrap(),
            kind: ConstraintKind::Deadline {
                percentile: pct,
                bound: 10.0,
            },
        };
        let (ok_85, p) = e.constraint(&cons(0.85), 20_000, &mut rng).unwrap();
        assert!(ok_85, "P(X<=10) ~ 0.9 satisfies an 85% requirement");
        assert!((p - 0.9).abs() < 0.02);
        let (ok_95, _) = e.constraint(&cons(0.95), 20_000, &mut rng).unwrap();
        assert!(!ok_95, "a 95% requirement must fail");
    }

    #[test]
    fn deterministic_constraints_use_the_mean() {
        let mut p = ProbProgram::new();
        p.push_certain(clause("v(7).")).unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(6);
        let atmost = Constraint {
            var: "X".into(),
            query: parse_query("v(X)").unwrap(),
            kind: ConstraintKind::AtMost { bound: 7.0 },
        };
        assert!(e.constraint(&atmost, 10, &mut rng).unwrap().0);
        let atleast = Constraint {
            var: "X".into(),
            query: parse_query("v(X)").unwrap(),
            kind: ConstraintKind::AtLeast { bound: 7.5 },
        };
        assert!(!e.constraint(&atleast, 10, &mut rng).unwrap().0);
    }

    #[test]
    fn state_facts_swap_between_states() {
        let mut p = ProbProgram::new();
        p.push_certain(clause("cost(C) :- cfg(V), price(V, P), C is P."))
            .unwrap();
        p.push_certain(clause("price(v0, 10).")).unwrap();
        p.push_certain(clause("price(v1, 99).")).unwrap();
        let goal = Goal {
            kind: GoalKind::Minimize,
            var: "C".into(),
            query: parse_query("cost(C)").unwrap(),
        };
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(7);
        e.set_state_facts("cfg", 1, vec![parse_query("cfg(v0)").unwrap()])
            .unwrap();
        assert_eq!(e.goal_value(&goal, 5, &mut rng).unwrap(), 10.0);
        e.set_state_facts("cfg", 1, vec![parse_query("cfg(v1)").unwrap()])
            .unwrap();
        assert_eq!(e.goal_value(&goal, 5, &mut rng).unwrap(), 99.0);
    }

    #[test]
    fn failing_goal_query_is_an_error() {
        let p = ProbProgram::new();
        let goal = Goal {
            kind: GoalKind::Minimize,
            var: "C".into(),
            query: parse_query("nosuch(C)").unwrap(),
        };
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(8);
        assert!(e.goal_value(&goal, 3, &mut rng).is_err());
    }

    #[test]
    fn group_weights_are_normalized() {
        let mut p = ProbProgram::new();
        p.push_group(vec![
            (2.0, parse_query("x(1)").unwrap()),
            (6.0, parse_query("x(2)").unwrap()),
        ])
        .unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(9);
        let xs = e
            .value_samples(&parse_query("x(X)").unwrap(), "X", 10_000, &mut rng)
            .unwrap();
        let share = xs.iter().filter(|&&x| x == 2.0).count() as f64 / xs.len() as f64;
        assert!((share - 0.75).abs() < 0.02, "got {share}");
    }
}
