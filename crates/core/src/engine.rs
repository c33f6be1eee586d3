//! The Deco engine: WLog programs in, provisioning plans out (Figure 3).
//!
//! `import(<cloud>)` injects the calibrated cloud facts (`vm/1`, `price/2`
//! and the histogram-expanded `exetime/3` groups) from the metadata store;
//! `import(<workflow>)` injects the workflow facts (`task/1`, `edge/2`,
//! plus the virtual `root`/`tail` tasks). The optimization variables come
//! from the program's `forall` declaration — the engine recognizes the
//! paper's indicator shape `configs(Tid, Vid, Con)` with the one-hot
//! constraint of Section 3.1 (exactly one type per task) and searches
//! type-vector states, evaluating each state by swapping its `configs`
//! facts into the interpreter and running Monte-Carlo inference on the
//! goal and constraints (Algorithms 1 and 2). Each search worker owns a
//! clone of the compiled evaluator, so states evaluate in parallel on the
//! caller's backend with bit-identical results, and every query runs under
//! [`WLOG_STEP_LIMIT`].
//!
//! The typed fast path ([`Deco::plan_workflow`]) runs the same three-part
//! pipeline with a compiled evaluator; the integration tests cross-check
//! the two paths on workflows small enough for the interpreter.

use crate::error::DecoError;
use crate::estimate::ExecTimeTable;
use crate::scheduling::SchedulingProblem;
use deco_cloud::{CloudSpec, MetadataStore, Plan};
use deco_solver::transform::schedule_neighbors;
use deco_solver::{
    astar_search, beam_search, EvalBackend, Evaluation, SearchOptions, SearchProblem, SearchStats,
};
use deco_wlog::ast::Term;
use deco_wlog::machine::MachineError;
use deco_wlog::problog::{Evaluator, ProbProgram};
use deco_wlog::program::{Goal, WlogProgram};
use deco_workflow::Workflow;
use std::sync::OnceLock;

/// IR-construction failures are translation errors: the program validated,
/// but a clause or weighted group could not be grounded.
fn translate_err(e: MachineError) -> DecoError {
    DecoError::Translate(e.0)
}

/// Step budget of one WLog query on the declarative path: resolution steps
/// plus the term cells unification, comparison and copying visit. The
/// largest query of the test suite and of the `plan_wlog` benchmark takes
/// 450 steps, so this leaves more than 2,000× headroom. A program that
/// does not terminate (`loop :- loop.`, or a left-recursive rule) exhausts
/// it, and planning fails with [`DecoError::Eval`] instead of spinning.
pub const WLOG_STEP_LIMIT: u64 = 1_000_000;

/// Reject engine options that cannot plan: every state runs
/// `mc_iters` Monte-Carlo iterations, so there must be at least one.
pub(crate) fn check_mc_iters(options: &DecoOptions) -> Result<(), DecoError> {
    if options.mc_iters == 0 {
        return Err(DecoError::Plan(
            "mc_iters must be at least 1 (Monte-Carlo iterations per state)".into(),
        ));
    }
    Ok(())
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct DecoOptions {
    /// Monte-Carlo iterations per state (the paper's `Max_iter`).
    pub mc_iters: usize,
    /// Search budget and seeding.
    pub search: SearchOptions,
    /// Beam width of the default search.
    pub beam_width: usize,
    /// Histogram bins for `exetime` expansion in the probabilistic IR
    /// (kept small — each bin is one weighted fact).
    pub wlog_bins: usize,
    /// When set, the typed path plans against failure-adjusted runtime
    /// histograms: each per-(task, type) distribution is inflated by the
    /// expected retry overhead under the store's `fail_rate` facts and this
    /// retry policy. `None` keeps the reliable-cloud estimates.
    pub retry: Option<deco_cloud::RetryConfig>,
}

impl Default for DecoOptions {
    fn default() -> Self {
        DecoOptions {
            mc_iters: 100,
            search: SearchOptions::default(),
            beam_width: 4,
            wlog_bins: 5,
            retry: None,
        }
    }
}

/// The provisioning plan Deco hands back to the WMS.
#[derive(Debug, Clone)]
pub struct DecoPlan {
    /// Chosen instance type per task.
    pub types: Vec<usize>,
    /// Concrete slots (after consolidation).
    pub plan: Plan,
    /// The winning state's evaluation.
    pub evaluation: Evaluation,
    /// Search statistics (state counts, modeled device time).
    pub stats: SearchStats,
}

/// The declarative optimization engine.
#[derive(Clone)]
pub struct Deco {
    pub store: MetadataStore,
    pub options: DecoOptions,
}

impl Deco {
    pub fn new(store: MetadataStore) -> Self {
        Deco {
            store,
            options: DecoOptions::default(),
        }
    }

    fn spec(&self) -> &CloudSpec {
        &self.store.spec
    }

    /// The scheduling problem this engine plans `wf` against: estimates
    /// fold in the store's failure rates when `options.retry` is set, and
    /// every state runs `options.mc_iters` Monte-Carlo iterations.
    pub(crate) fn problem<'a>(
        &'a self,
        wf: &'a Workflow,
        deadline: f64,
        percentile: f64,
    ) -> SchedulingProblem<'a> {
        let (spec, store) = (self.spec(), &self.store);
        let mut problem = match &self.options.retry {
            Some(retry) => {
                SchedulingProblem::new_failure_aware(wf, spec, store, deadline, percentile, retry)
            }
            None => SchedulingProblem::new(wf, spec, store, deadline, percentile),
        };
        problem.mc_iters = self.options.mc_iters;
        problem
    }

    /// Typed fast path for the scheduling problem: same pipeline, compiled
    /// evaluator, suitable for 1000-task workflows. `None` when no plan is
    /// feasible or `options.mc_iters` is zero.
    pub fn plan_workflow(
        &self,
        wf: &Workflow,
        deadline: f64,
        percentile: f64,
        backend: &EvalBackend,
    ) -> Option<DecoPlan> {
        check_mc_iters(&self.options).ok()?;
        let problem = self.problem(wf, deadline, percentile);
        let o = &self.options;
        let result = beam_search(&problem, &o.search, o.beam_width, backend);
        result.best.map(|(types, evaluation)| DecoPlan {
            plan: problem.plan_of(&types),
            types,
            evaluation,
            stats: result.stats,
        })
    }

    /// The full declarative path: parse and run a WLog program against a
    /// workflow (resolving `import(...)`s), returning the best plan.
    pub fn plan_workflow_wlog(
        &self,
        program_src: &str,
        wf: &Workflow,
        backend: &EvalBackend,
    ) -> Result<DecoPlan, DecoError> {
        check_mc_iters(&self.options)?;
        let program = WlogProgram::parse(program_src)?;
        program.validate()?;
        let goal = program
            .goal
            .clone()
            .ok_or_else(|| DecoError::Program("no optimization goal declared".into()))?;
        if program.constraints.is_empty() {
            return Err(DecoError::Program(
                "scheduling programs need at least one constraint".into(),
            ));
        }

        // --- translate to the probabilistic IR (Section 5.1) -------------
        let mut prob = ProbProgram::new();
        for c in &program.clauses {
            prob.push_certain(c.clone()).map_err(translate_err)?;
        }
        let k = self.spec().k();
        // Cloud facts from import(cloud): vm ids and per-second prices.
        for j in 0..k {
            prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
                "vm",
                vec![vm_atom(j)],
            )))
            .map_err(translate_err)?;
            prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
                "price",
                vec![
                    vm_atom(j),
                    Term::num(self.spec().types[j].price_per_hour / 3600.0),
                ],
            )))
            .map_err(translate_err)?;
        }
        // Calibrated reliability facts, also part of import(cloud): the
        // region ids and the per-(type, region) crash rates measured by the
        // metadata store, so failure-aware programs can weigh reliability
        // against price declaratively.
        for r in 0..self.spec().regions.len() {
            prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
                "region",
                vec![region_atom(r)],
            )))
            .map_err(translate_err)?;
        }
        for j in 0..k {
            for r in 0..self.spec().regions.len() {
                prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
                    "fail_rate",
                    vec![
                        vm_atom(j),
                        region_atom(r),
                        Term::num(self.store.fail_rate(j, r)),
                    ],
                )))
                .map_err(translate_err)?;
            }
        }
        // Workflow facts from import(workflow): tasks, edges, virtual
        // root/tail.
        for t in wf.task_ids() {
            prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
                "task",
                vec![task_atom(t.index())],
            )))
            .map_err(translate_err)?;
        }
        for e in wf.edges() {
            prob.push_certain(edge_fact(
                task_atom(e.from.index()),
                task_atom(e.to.index()),
            ))
            .map_err(translate_err)?;
        }
        for r in wf.roots() {
            prob.push_certain(edge_fact(Term::atom("root"), task_atom(r.index())))
                .map_err(translate_err)?;
        }
        for s in wf.sinks() {
            prob.push_certain(edge_fact(task_atom(s.index()), Term::atom("tail")))
                .map_err(translate_err)?;
        }
        // The virtual root costs nothing on any instance.
        prob.push_certain(deco_wlog::ast::Clause::fact(Term::compound(
            "exetime",
            vec![Term::atom("root"), vm_atom(0), Term::num(0.0)],
        )))
        .map_err(translate_err)?;
        // exetime groups: one annotated disjunction per (task, type), one
        // alternative per histogram bin (the `p_j : exetime(...)` facts).
        let table = ExecTimeTable::build(wf, &self.store, self.options.wlog_bins);
        for t in wf.task_ids() {
            for j in 0..k {
                let alts: Vec<(f64, Term)> = table
                    .hist(t.index(), j)
                    .points()
                    .filter(|(_, p)| *p > 0.0)
                    .map(|(x, p)| {
                        (
                            p,
                            Term::compound(
                                "exetime",
                                vec![task_atom(t.index()), vm_atom(j), Term::num(x)],
                            ),
                        )
                    })
                    .collect();
                prob.push_group(alts).map_err(translate_err)?;
            }
        }

        // --- search (Section 5.3) ----------------------------------------
        let var_functor = program
            .var_functors()
            .first()
            .cloned()
            .ok_or_else(|| DecoError::Program("no optimization variable".into()))?;
        if var_functor.1 != 3 {
            return Err(DecoError::Program(format!(
                "optimization variable {}/{} must have arity 3 (task, vm, indicator)",
                var_functor.0, var_functor.1
            )));
        }
        let mut evaluator = Evaluator::new(prob).map_err(translate_err)?;
        evaluator.machine.step_limit = Some(WLOG_STEP_LIMIT);
        let problem = WlogSchedulingProblem {
            wf,
            spec: self.spec(),
            evaluator,
            program: program.clone(),
            goal,
            var_functor,
            mc_iters: self.options.mc_iters,
            state_bytes: table.state_bytes(),
            runaway: OnceLock::new(),
        };
        let result = if program.astar {
            astar_search(&problem, &self.options.search, backend)
        } else {
            beam_search(
                &problem,
                &self.options.search,
                self.options.beam_width,
                backend,
            )
        };
        if let Some(e) = problem.runaway.get() {
            return Err(DecoError::Eval(e.clone()));
        }
        let (types, evaluation) = result.best.ok_or_else(|| {
            DecoError::Infeasible(if result.stats.truncated {
                format!(
                    "no feasible provisioning plan found within the search budget \
                     ({:.3} ticks spent over {} states)",
                    result.stats.budget_spent, result.stats.states_evaluated
                )
            } else {
                "no feasible provisioning plan found".into()
            })
        })?;
        Ok(DecoPlan {
            plan: Plan::packed(wf, &types, 0, self.spec()),
            types,
            evaluation,
            stats: result.stats,
        })
    }
}

fn task_atom(i: usize) -> Term {
    Term::atom(format!("t{i}"))
}

fn vm_atom(j: usize) -> Term {
    Term::atom(format!("v{j}"))
}

fn region_atom(r: usize) -> Term {
    Term::atom(format!("r{r}"))
}

fn edge_fact(from: Term, to: Term) -> deco_wlog::ast::Clause {
    deco_wlog::ast::Clause::fact(Term::compound("edge", vec![from, to]))
}

/// The scheduling problem evaluated through the WLog interpreter.
struct WlogSchedulingProblem<'a> {
    wf: &'a Workflow,
    spec: &'a CloudSpec,
    /// The compiled program. Each search worker clones it into its scratch
    /// on first use; the clone shares the compiled clauses and owns only
    /// the state facts and the interpreter's stacks.
    evaluator: Evaluator,
    program: WlogProgram,
    /// The validated goal, held by value so evaluation never re-inspects
    /// the program's `Option<Goal>`.
    goal: Goal,
    var_functor: (String, usize),
    mc_iters: usize,
    state_bytes: usize,
    /// Set by the first query that exhausts [`WLOG_STEP_LIMIT`]: the program
    /// does not terminate, so every later state is skipped and planning
    /// reports this error.
    runaway: OnceLock<MachineError>,
}

impl WlogSchedulingProblem<'_> {
    fn goal_minimize(&self) -> bool {
        self.goal.kind == deco_wlog::program::GoalKind::Minimize
    }

    /// Whether a failed query ran out of steps; the first such error is
    /// kept for the caller.
    fn exhausted(&self, ev: &Evaluator, e: &MachineError) -> bool {
        let out = ev.machine.steps() > WLOG_STEP_LIMIT;
        if out {
            let _ = self.runaway.set(e.clone());
        }
        out
    }

    /// The state's variable facts (the declared functor, e.g. `configs/3`):
    /// one-hot per task, plus the virtual root's fixed configuration.
    fn state_facts(&self, s: &[usize]) -> Vec<Term> {
        let f = self.var_functor.0.as_str();
        let mut facts: Vec<Term> = s
            .iter()
            .enumerate()
            .map(|(i, &j)| Term::compound(f, vec![task_atom(i), vm_atom(j), Term::num(1.0)]))
            .collect();
        facts.push(Term::compound(
            f,
            vec![Term::atom("root"), vm_atom(0), Term::num(1.0)],
        ));
        facts
    }
}

impl SearchProblem for WlogSchedulingProblem<'_> {
    type State = Vec<usize>;
    type Scratch = Option<Evaluator>;

    fn initial(&self) -> Vec<usize> {
        vec![self.spec.cheapest_type(); self.wf.len()]
    }

    fn neighbors(&self, s: &Vec<usize>) -> Vec<Vec<usize>> {
        schedule_neighbors(self.wf, s, self.spec.k(), false)
    }

    fn evaluate(&self, s: &Vec<usize>, seed: u64, scratch: &mut Option<Evaluator>) -> Evaluation {
        let worst = if self.goal_minimize() {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
        if self.runaway.get().is_some() {
            return Evaluation::infeasible(worst);
        }
        // Every query resets the interpreter, and the state facts below
        // replace the previous state's, so the verdict does not depend on
        // what this worker evaluated before.
        let ev = scratch.get_or_insert_with(|| self.evaluator.clone());
        let (f, a) = (self.var_functor.0.as_str(), self.var_functor.1);
        if ev.set_state_facts(f, a, self.state_facts(s)).is_err() {
            // A state whose facts do not ground is unschedulable, not a
            // panic: report it as maximally infeasible and keep searching.
            return Evaluation::infeasible(worst);
        }
        let mut rng = deco_prob::rng::seeded(seed);
        // Constraints first (Algorithm 2 line 5 queries feasibility and
        // cost of the state).
        let mut feasible = true;
        let mut margin = 1.0f64;
        for cons in &self.program.constraints {
            match ev.constraint(cons, self.mc_iters, &mut rng) {
                Ok((ok, value)) => {
                    feasible &= ok;
                    margin = margin.min(value);
                }
                Err(e) if self.exhausted(ev, &e) => return Evaluation::infeasible(worst),
                Err(_) => {
                    feasible = false;
                    margin = 0.0;
                }
            }
        }
        let objective = match ev.goal_value(&self.goal, self.mc_iters, &mut rng) {
            Ok(value) => value,
            Err(e) => {
                self.exhausted(ev, &e);
                return Evaluation::infeasible(worst);
            }
        };
        Evaluation {
            feasible,
            objective,
            constraint_margin: margin,
        }
    }

    fn minimize(&self) -> bool {
        self.goal_minimize()
    }

    fn state_bytes(&self) -> usize {
        self.state_bytes
    }

    fn threads_per_state(&self) -> usize {
        self.mc_iters
    }

    fn cells_per_thread(&self) -> usize {
        self.wf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deco_workflow::generators;

    fn deco() -> Deco {
        let spec = CloudSpec::amazon_ec2();
        let store = MetadataStore::from_ground_truth(spec, 25);
        let mut d = Deco::new(store);
        d.options.mc_iters = 40;
        d.options.search.max_states = 400;
        d
    }

    /// Example 1 of the paper, parameterized by the deadline literal.
    fn example1(deadline_secs: f64, percentile: u32) -> String {
        format!(
            r#"
import(amazonec2).
import(workflow).
minimize Ct in totalcost(Ct).
T in maxtime(Path,T) satisfies deadline({percentile}%, {deadline_secs}s).
configs(Tid,Vid,Con) forall task(Tid) and vm(Vid).

path(X,Y,Y,Tp) :- edge(X,Y), exetime(X,Vid,T),
  configs(X,Vid,Con), Con==1, Tp is T.
path(X,Y,Z,Tp) :- edge(X,Z), Z\==Y, path(Z,Y,Z2,T1),
  exetime(X,Vid,T), configs(X,Vid,Con), Con==1, Tp is T+T1.
maxtime(Path,T) :- setof([Z,T1], path(root,tail,Z,T1), Set),
  max(Set, [Path,T]).
cost(Tid,Vid,C) :- price(Vid,Up), exetime(Tid,Vid,T),
  configs(Tid,Vid,Con), C is T*Up*Con.
totalcost(Ct) :- findall(C, cost(Tid,Vid,C), Bag), sum(Bag, Ct).
"#
        )
    }

    #[test]
    fn example1_runs_end_to_end_on_a_pipeline() {
        let d = deco();
        let wf = generators::pipeline(3, 900.0, 16 << 20);
        // Deadline between all-small and all-xlarge critical paths.
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let deadline = 0.5 * (dmin + dmax);
        let plan = d
            .plan_workflow_wlog(&example1(deadline, 90), &wf, &EvalBackend::SeqCpu)
            .expect("program must produce a plan");
        assert!(plan.evaluation.feasible);
        assert!(plan.evaluation.constraint_margin >= 0.9);
        assert_eq!(plan.types.len(), 3);
        plan.plan.validate(&wf, &d.store.spec).unwrap();
        // The deadline forces at least one task off the cheapest type.
        assert!(plan.types.iter().any(|&t| t > 0));
    }

    #[test]
    fn impossible_deadline_reports_no_plan() {
        let d = deco();
        let wf = generators::pipeline(2, 900.0, 0);
        let err = d
            .plan_workflow_wlog(&example1(1.0, 99), &wf, &EvalBackend::SeqCpu)
            .unwrap_err();
        assert!(matches!(err, DecoError::Infeasible(_)));
    }

    #[test]
    fn looser_deadline_is_not_more_expensive() {
        let d = deco();
        let wf = generators::pipeline(3, 900.0, 16 << 20);
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let tight = d
            .plan_workflow_wlog(&example1(dmin * 1.4, 90), &wf, &EvalBackend::SeqCpu)
            .expect("tight");
        let loose = d
            .plan_workflow_wlog(&example1(dmax * 2.0, 90), &wf, &EvalBackend::SeqCpu)
            .expect("loose");
        // Fractional (Equation (1)) cost comparison.
        assert!(loose.evaluation.objective <= tight.evaluation.objective + 1e-9);
    }

    #[test]
    fn astar_program_is_accepted() {
        let d = deco();
        let wf = generators::pipeline(2, 600.0, 0);
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let src = format!(
            "{}\nenabled(astar).\ncal_g_score(C) :- totalcost(C).\nest_h_score(C) :- totalcost(C).\n",
            example1(0.5 * (dmin + dmax), 90)
        );
        let plan = d
            .plan_workflow_wlog(&src, &wf, &EvalBackend::SeqCpu)
            .expect("astar path");
        assert!(plan.evaluation.feasible);
    }

    #[test]
    fn non_terminating_programs_fail_with_a_step_limit_error() {
        let mut d = deco();
        d.options.mc_iters = 4;
        d.options.search.max_states = 12;
        let wf = generators::pipeline(2, 300.0, 0);
        let base = example1(1e6, 90);
        for looping in [
            "totalcost(Ct) :- totalcost(Ct).",
            "loop :- loop.\nmaxtime(P, T) :- loop.",
        ] {
            // The looping clause comes first, so it is tried before any
            // terminating alternative.
            let src = format!("{looping}\n{base}");
            let t = std::time::Instant::now();
            let err = d
                .plan_workflow_wlog(&src, &wf, &EvalBackend::ParCpu(2))
                .expect_err("a runaway program cannot plan");
            assert!(
                t.elapsed().as_secs_f64() < 5.0,
                "{looping}: {:?}",
                t.elapsed()
            );
            match err {
                DecoError::Eval(e) => assert!(e.0.contains("step limit"), "{e}"),
                other => panic!("{looping}: expected a step-limit error, got {other}"),
            }
        }
    }

    #[test]
    fn zero_monte_carlo_iterations_are_rejected() {
        let mut d = deco();
        d.options.mc_iters = 0;
        let wf = generators::pipeline(2, 300.0, 0);
        let err = d
            .plan_workflow_wlog(&example1(1e6, 90), &wf, &EvalBackend::SeqCpu)
            .unwrap_err();
        assert!(matches!(err, DecoError::Plan(_)), "{err}");
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let typed = d.plan_workflow(&wf, 0.5 * (dmin + dmax), 0.9, &EvalBackend::SeqCpu);
        assert!(typed.is_none());
        let err = crate::supervisor::plan_with_fallback(
            &d,
            &wf,
            0.5 * (dmin + dmax),
            0.9,
            &deco_solver::SearchBudget::unlimited(),
        )
        .unwrap_err();
        assert!(matches!(err, DecoError::Plan(_)), "{err}");
    }

    #[test]
    fn the_wlog_path_runs_on_the_callers_backend() {
        let d = deco();
        let wf = generators::fork_join(2, 1200.0, (64u64 << 20) as f64);
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let src = example1(0.5 * (dmin + dmax), 90);
        let seq = d
            .plan_workflow_wlog(&src, &wf, &EvalBackend::SeqCpu)
            .unwrap();
        let k40 = EvalBackend::SimGpu(deco_gpu::DeviceSpec::k40());
        let gpu = d.plan_workflow_wlog(&src, &wf, &k40).unwrap();
        assert_eq!(gpu.types, seq.types);
        assert_eq!(gpu.evaluation, seq.evaluation);
        assert_eq!(gpu.stats.states_evaluated, seq.stats.states_evaluated);
        assert_eq!(gpu.stats.batches, seq.stats.batches);
        // The device model charged is the K40's, not a sequential core's.
        assert_ne!(
            gpu.stats.budget_spent.to_bits(),
            seq.stats.budget_spent.to_bits()
        );
    }

    #[test]
    fn typed_path_produces_valid_plans() {
        let d = deco();
        let wf = generators::montage(1, 13);
        let (dmin, dmax) = crate::estimate::deadline_anchors(&wf, &d.store.spec);
        let plan = d
            .plan_workflow(&wf, 0.5 * (dmin + dmax), 0.9, &EvalBackend::SeqCpu)
            .expect("feasible");
        plan.plan.validate(&wf, &d.store.spec).unwrap();
        assert!(plan.evaluation.feasible);
        assert!(plan.stats.states_evaluated > 0);
    }
}
