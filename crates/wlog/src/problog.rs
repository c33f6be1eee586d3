//! The probabilistic intermediate representation and its Monte-Carlo
//! evaluator (Sections 5.1–5.2, Algorithm 1).
//!
//! A WLog program is translated into weighted rules `p : h :- body`
//! following ProbLog syntax. Two kinds of uncertainty appear:
//!
//! * **independent** rules, true with probability `p` in a realization;
//! * **annotated disjunctions** ("groups"): mutually exclusive
//!   alternatives, exactly one of which holds per realization — the paper's
//!   expansion of a task's execution time into one `p_j :
//!   exetime(Tid,Vid,T_j)` fact per histogram bin.
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
use deco_prob::mc::Estimate;
use deco_prob::{CdfSampler, DecoRng};
use rand::Rng;
use std::sync::Arc;

/// A weighted rule of the probabilistic IR.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbRule {
    pub prob: f64,
    pub clause: Clause,
}

/// A probabilistic logic program.
#[derive(Debug, Clone, Default)]
pub struct ProbProgram {
    /// Rules with probability 1.0 (the deterministic translation gives
    /// every rule probability 1.0, Section 5.1).
    pub certain: Vec<Clause>,
    /// Independent probabilistic rules.
    pub independent: Vec<ProbRule>,
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

    pub fn push_independent(&mut self, prob: f64, clause: Clause) -> Result<(), MachineError> {
        if !(0.0..=1.0).contains(&prob) {
            return Err(MachineError(format!("probability out of range: {prob}")));
        }
        check_callable(&clause.head)?;
        self.independent.push(ProbRule { prob, clause });
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

    /// Total number of weighted rules (the `Rule[1..n]` array of
    /// Algorithm 1).
    pub fn rule_count(&self) -> usize {
        self.certain.len()
            + self.independent.len()
            + self.groups.iter().map(|g| g.len()).sum::<usize>()
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
/// alternative and fired-rule buffers.
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
    /// The probability of each independent rule.
    rules: Vec<f64>,
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
        // Validate the probabilistic rules before compiling any, so the
        // first bad rule is reported in program order.
        for r in &program.independent {
            check_callable(&r.clause.head)?;
        }
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
        for r in &program.independent {
            db.add_rule(&r.clause)?;
        }
        let sampling = Sampling {
            groups: program
                .groups
                .iter()
                .map(|g| CdfSampler::from_probs(g.iter().map(|(p, _)| *p)))
                .collect(),
            rules: program.independent.iter().map(|r| r.prob).collect(),
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

    /// Sample one realization: one alternative per group, in group order,
    /// then one uniform per independent rule, in rule order.
    fn sample_realization(&mut self, rng: &mut DecoRng) {
        let m = &mut self.machine;
        m.chosen.clear();
        m.fired.clear();
        for sampler in &self.sampling.groups {
            m.chosen.push(sampler.sample_index(rng) as u32);
        }
        for &p in &self.sampling.rules {
            m.fired.push(rng.gen::<f64>() < p);
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
    ) -> Result<Estimate, MachineError> {
        let samples = self.value_samples(&goal.query, &goal.var, iters, rng)?;
        let mean = deco_prob::stats::mean(&samples);
        let se = (deco_prob::stats::variance(&samples) / samples.len() as f64).sqrt();
        Ok(Estimate {
            value: mean,
            std_error: se,
            iterations: iters,
        })
    }

    /// Algorithm 1, constraint branch. Returns `(satisfied, estimate)`
    /// where the estimate is the constraint probability (probabilistic
    /// kinds) or the expected value (deterministic kinds).
    pub fn constraint(
        &mut self,
        cons: &Constraint,
        iters: usize,
        rng: &mut DecoRng,
    ) -> Result<(bool, Estimate), MachineError> {
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
                let est = Estimate {
                    value: p,
                    std_error: (p * (1.0 - p) / iters as f64).sqrt(),
                    iterations: iters,
                };
                Ok((p >= percentile, est))
            }
            ConstraintKind::AtMost { bound } => {
                let samples = self.value_samples(&cons.query, &cons.var, iters, rng)?;
                let mean = deco_prob::stats::mean(&samples);
                let est = Estimate {
                    value: mean,
                    std_error: (deco_prob::stats::variance(&samples) / iters as f64).sqrt(),
                    iterations: iters,
                };
                Ok((mean <= bound, est))
            }
            ConstraintKind::AtLeast { bound } => {
                let samples = self.value_samples(&cons.query, &cons.var, iters, rng)?;
                let mean = deco_prob::stats::mean(&samples);
                let est = Estimate {
                    value: mean,
                    std_error: (deco_prob::stats::variance(&samples) / iters as f64).sqrt(),
                    iterations: iters,
                };
                Ok((mean >= bound, est))
            }
        }
    }

    /// Probability that a (0-ary value-less) query succeeds — the generic
    /// ProbLog success-probability semantics, exposed for completeness and
    /// used in tests to validate the sampler against exact inference on
    /// small programs.
    pub fn success_probability(
        &mut self,
        query: &Term,
        iters: usize,
        rng: &mut DecoRng,
    ) -> Result<Estimate, MachineError> {
        let mut hits = 0usize;
        for _ in 0..iters {
            self.sample_realization(rng);
            if self.machine.provable(query)? {
                hits += 1;
            }
        }
        let p = hits as f64 / iters as f64;
        Ok(Estimate {
            value: p,
            std_error: (p * (1.0 - p) / iters as f64).sqrt(),
            iterations: iters,
        })
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
    fn success_probability_of_independent_fact() {
        let mut p = ProbProgram::new();
        p.push_independent(0.3, clause("rain.")).unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(1);
        let est = e
            .success_probability(&parse_query("rain").unwrap(), 20_000, &mut rng)
            .unwrap();
        assert!((est.value - 0.3).abs() < 0.02, "got {}", est.value);
    }

    #[test]
    fn success_probability_of_an_independent_rule_is_pinned() {
        // One uniform per realization decides the rule, in program order
        // after the group draws; the hit count under a fixed seed is exact.
        let mut p = ProbProgram::new();
        p.push_certain(clause("cloudy.")).unwrap();
        p.push_independent(0.4, clause("wet :- cloudy.")).unwrap();
        p.push_group(vec![
            (0.5, parse_query("s(1)").unwrap()),
            (0.5, parse_query("s(2)").unwrap()),
        ])
        .unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(11);
        let est = e
            .success_probability(&parse_query("wet, s(2)").unwrap(), 1000, &mut rng)
            .unwrap();
        assert_eq!(est.value, 0.217);
    }

    #[test]
    fn independent_facts_combine_like_problog() {
        // P(wet) = 1 - (1-0.3)(1-0.5) = 0.65 when two independent causes.
        let mut p = ProbProgram::new();
        p.push_independent(0.3, clause("rain.")).unwrap();
        p.push_independent(0.5, clause("sprinkler.")).unwrap();
        p.push_certain(clause("wet :- rain.")).unwrap();
        p.push_certain(clause("wet :- sprinkler.")).unwrap();
        let mut e = Evaluator::new(p).unwrap();
        let mut rng = seeded(2);
        let est = e
            .success_probability(&parse_query("wet").unwrap(), 30_000, &mut rng)
            .unwrap();
        assert!((est.value - 0.65).abs() < 0.02, "got {}", est.value);
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
        let est = e.goal_value(&goal, 20_000, &mut rng).unwrap();
        assert!((est.value - 35.0).abs() < 0.5, "got {}", est.value);
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
        let (ok_85, est) = e.constraint(&cons(0.85), 20_000, &mut rng).unwrap();
        assert!(ok_85, "P(X<=10) ~ 0.9 satisfies an 85% requirement");
        assert!((est.value - 0.9).abs() < 0.02);
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
        assert_eq!(e.goal_value(&goal, 5, &mut rng).unwrap().value, 10.0);
        e.set_state_facts("cfg", 1, vec![parse_query("cfg(v1)").unwrap()])
            .unwrap();
        assert_eq!(e.goal_value(&goal, 5, &mut rng).unwrap().value, 99.0);
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
        let est = e
            .success_probability(&parse_query("x(2)").unwrap(), 10_000, &mut rng)
            .unwrap();
        assert!((est.value - 0.75).abs() < 0.02);
    }

    #[test]
    fn rule_count_counts_everything() {
        let mut p = ProbProgram::new();
        p.push_certain(clause("a.")).unwrap();
        p.push_independent(0.5, clause("b.")).unwrap();
        p.push_group(vec![
            (0.5, parse_query("c(1)").unwrap()),
            (0.5, parse_query("c(2)").unwrap()),
        ])
        .unwrap();
        assert_eq!(p.rule_count(), 4);
    }
}
