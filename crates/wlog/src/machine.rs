//! The WLog interpreter: SLD resolution with backtracking, cut, and the
//! ProLog built-ins the paper's programs use (Section 4.1).
//!
//! Clauses are compiled once, when they are asserted, into node templates
//! with interned symbols and per-clause variable numbers (see
//! [`crate::unify`]). Activating a clause reserves a block of binding slots
//! instead of renaming the clause.
//!
//! Resolution is a loop over explicit stacks. The goals still to prove are
//! a continuation: a frame (a clause body, a conjunction, or a single goal)
//! and a position in it; a finished frame continues with its parent, and
//! frames are shared by every choice point that resumes them. A choice
//! point records the alternatives left for one goal (the remaining clause
//! candidates, list elements, or split points) together with the
//! continuation and the store marks to restore. `findall`, `setof` and
//! `\+` push a barrier choice point and run their goal above it. A cut
//! pops the choice points made since its clause's predicate was called.
//!
//! Candidates for a call come in a fixed order: the certain clauses in
//! assert order, then the facts the current realization chose from the
//! annotated-disjunction groups in group order. Both lists are indexed on
//! an atom or number first argument, which skips clauses whose first
//! argument cannot unify without reordering the rest.

use crate::ast::{Clause, Term};
use crate::unify::{Mark, Node, Store, Sym, TRef, View};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Errors raised during interpretation (bad arithmetic, unknown builtins
/// used wrongly, …). Unknown *predicates* simply fail, as in ProLog.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineError(pub String);

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wlog runtime error: {}", self.0)
    }
}

impl std::error::Error for MachineError {}

/// Multiply-rotate hashing for the small integer keys of the symbol and
/// index tables (SipHash's DoS resistance buys nothing here).
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Symbols the machine dispatches on, interned first so their ids are
/// fixed.
pub(crate) mod sym {
    use crate::unify::Sym;

    pub const CONJ: Sym = 0;
    pub const TRUE: Sym = 1;
    pub const FAIL: Sym = 2;
    pub const FALSE: Sym = 3;
    pub const CUT: Sym = 4;
    pub const IS: Sym = 5;
    pub const LT: Sym = 6;
    pub const GT: Sym = 7;
    pub const LE: Sym = 8;
    pub const GE: Sym = 9;
    pub const ARITH_EQ: Sym = 10;
    pub const IDENTICAL: Sym = 11;
    pub const NOT_IDENTICAL: Sym = 12;
    pub const UNIFY: Sym = 13;
    pub const FINDALL: Sym = 14;
    pub const SETOF: Sym = 15;
    pub const SUM: Sym = 16;
    pub const MAX: Sym = 17;
    pub const MIN: Sym = 18;
    pub const LENGTH: Sym = 19;
    pub const MEMBER: Sym = 20;
    pub const APPEND: Sym = 21;
    pub const NOT: Sym = 22;
    pub const NAF: Sym = 23;
    pub const PLUS: Sym = 24;
    pub const MINUS: Sym = 25;
    pub const TIMES: Sym = 26;
    pub const DIVIDE: Sym = 27;
    pub const POW: Sym = 28;

    pub const NAMES: [&str; 29] = [
        ",", "true", "fail", "false", "!", "is", "<", ">", "=<", ">=", "=:=", "==", "\\==", "=",
        "findall", "setof", "sum", "max", "min", "length", "member", "append", "not", "\\+", "+",
        "-", "*", "/", "pow",
    ];
}

/// Atom and functor names, append-only: a symbol's id never changes.
#[derive(Debug, Clone)]
pub(crate) struct Interner {
    names: Vec<Box<str>>,
    ids: FxMap<Box<str>, Sym>,
}

impl Default for Interner {
    fn default() -> Self {
        let mut i = Interner {
            names: Vec::new(),
            ids: FxMap::default(),
        };
        for n in sym::NAMES {
            i.names.push(n.into());
            i.ids.insert(n.into(), i.names.len() as Sym - 1);
        }
        i
    }
}

impl Interner {
    fn get(&self, name: &str) -> Option<Sym> {
        self.ids.get(name).copied()
    }
}

/// The id of `name`, adding it (and copying a shared table once) only when
/// it is new.
fn intern(syms: &mut Arc<Interner>, name: &str) -> Sym {
    if let Some(s) = syms.get(name) {
        return s;
    }
    let t = Arc::make_mut(syms);
    t.names.push(name.into());
    let s = t.names.len() as Sym - 1;
    t.ids.insert(name.into(), s);
    s
}

/// Compile a term into `out`: compound arguments and list cells are
/// appended, the term's own cell is returned for the caller to place.
/// Variables are numbered by first occurrence in `names`.
pub(crate) fn compile_term(
    t: &Term,
    out: &mut Vec<Node>,
    syms: &mut Arc<Interner>,
    names: &mut Vec<String>,
) -> Node {
    match t {
        Term::Atom(a) => Node::Atom(intern(syms, a)),
        Term::Num(x) => Node::Num(*x),
        Term::Var(v) => {
            let k = match names.iter().position(|n| n == v) {
                Some(k) => k,
                None => {
                    names.push(v.clone());
                    names.len() - 1
                }
            };
            Node::Var(k as u32)
        }
        Term::Compound(f, args) => {
            let f = intern(syms, f);
            let base = out.len();
            out.resize(base + args.len(), Node::Nil);
            for (i, a) in args.iter().enumerate() {
                out[base + i] = compile_term(a, out, syms, names);
            }
            Node::Struct {
                f,
                n: args.len() as u32,
                args: base as u32,
            }
        }
        Term::List(items, tail) if items.is_empty() => match tail {
            Some(t) => compile_term(t, out, syms, names),
            None => Node::Nil,
        },
        Term::List(items, tail) => {
            let base = out.len();
            out.resize(base + 2 * items.len(), Node::Nil);
            for (i, item) in items.iter().enumerate() {
                let cell = base + 2 * i;
                out[cell] = compile_term(item, out, syms, names);
                if i + 1 < items.len() {
                    out[cell + 1] = Node::Cons {
                        args: cell as u32 + 2,
                    };
                }
            }
            let last = base + 2 * items.len() - 1;
            out[last] = match tail {
                Some(t) => compile_term(t, out, syms, names),
                None => Node::Nil,
            };
            Node::Cons { args: base as u32 }
        }
    }
}

/// A clause template: its head cell, its body goals (a range of the
/// arena's goal list) and how many variables an activation reserves.
#[derive(Debug, Clone, Copy)]
struct Template {
    head: u32,
    body: u32,
    len: u32,
    vars: u32,
}

/// Clause templates sharing one node arena.
#[derive(Debug, Default, Clone)]
struct Arena {
    nodes: Vec<Node>,
    goals: Vec<u32>,
}

impl Arena {
    fn compile(&mut self, c: &Clause, syms: &mut Arc<Interner>) -> Template {
        let mut names = Vec::new();
        let head = self.place(&c.head, syms, &mut names);
        let body = self.goals.len() as u32;
        for g in &c.body {
            let idx = match g {
                Term::Atom(a) if a == "!" => {
                    self.nodes.push(Node::Cut);
                    self.nodes.len() as u32 - 1
                }
                g => self.place(g, syms, &mut names),
            };
            self.goals.push(idx);
        }
        Template {
            head,
            body,
            len: c.body.len() as u32,
            vars: names.len() as u32,
        }
    }

    fn place(&mut self, t: &Term, syms: &mut Arc<Interner>, names: &mut Vec<String>) -> u32 {
        let at = self.nodes.len();
        self.nodes.push(Node::Nil);
        self.nodes[at] = compile_term(t, &mut self.nodes, syms, names);
        at as u32
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.goals.clear();
    }
}

/// A first-argument index key: atoms by symbol, numbers by value (`-0.0`
/// folded into `0.0`, which it unifies with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Atom(Sym),
    Num(u64),
}

/// Which entries a call can match, from its first argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeySel {
    /// Unbound first argument (or none): every entry.
    All,
    /// A compound, list or NaN first argument: only entries without a key.
    Unkeyed,
    Key(Key),
}

impl KeySel {
    fn of(v: View) -> KeySel {
        match v {
            View::Var(_) => KeySel::All,
            View::Atom(a) => KeySel::Key(Key::Atom(a)),
            View::Num(x) if !x.is_nan() => KeySel::Key(Key::Num((x + 0.0).to_bits())),
            _ => KeySel::Unkeyed,
        }
    }
}

/// The key of an entry whose first argument is `n` (`None`: matches any
/// call key).
fn key_of(n: Option<Node>) -> Option<Key> {
    match n {
        Some(Node::Atom(a)) => Some(Key::Atom(a)),
        Some(Node::Num(x)) if !x.is_nan() => Some(Key::Num((x + 0.0).to_bits())),
        _ => None,
    }
}

const ALL: u32 = u32::MAX;
const UNKEYED: u32 = u32::MAX - 1;

/// An ordered first-argument index: each list keeps entry order, and
/// entries without a key appear in every list.
#[derive(Debug, Default, Clone)]
struct Index {
    all: Vec<u32>,
    unkeyed: Vec<u32>,
    lists: Vec<Vec<u32>>,
    keyed: FxMap<Key, u32>,
}

impl Index {
    fn push(&mut self, entry: u32, key: Option<Key>) {
        self.all.push(entry);
        match key {
            Some(k) => {
                let id = match self.keyed.get(&k) {
                    Some(&id) => id,
                    None => {
                        self.lists.push(self.unkeyed.clone());
                        self.keyed.insert(k, self.lists.len() as u32 - 1);
                        self.lists.len() as u32 - 1
                    }
                };
                self.lists[id as usize].push(entry);
            }
            None => {
                self.unkeyed.push(entry);
                for l in &mut self.lists {
                    l.push(entry);
                }
            }
        }
    }

    fn select(&self, sel: KeySel) -> u32 {
        match sel {
            KeySel::All => ALL,
            KeySel::Unkeyed => UNKEYED,
            KeySel::Key(k) => self.keyed.get(&k).copied().unwrap_or(UNKEYED),
        }
    }

    fn list(&self, id: u32) -> &[u32] {
        match id {
            ALL => &self.all,
            UNKEYED => &self.unkeyed,
            i => &self.lists[i as usize],
        }
    }
}

/// The certain clauses of one predicate.
#[derive(Debug, Default, Clone)]
struct Pred {
    arena: Arena,
    clauses: Vec<Template>,
    index: Index,
}

/// The probabilistic facts, sampled per realization: the alternatives of
/// every annotated-disjunction group. `by_pred[p]` indexes, for predicate
/// `p`, the groups with an alternative of `p`.
#[derive(Debug, Default, Clone)]
struct Prob {
    arena: Arena,
    groups: Vec<Vec<(u32, Template)>>,
    by_pred: Vec<Index>,
}

impl Prob {
    fn by_pred(&mut self, p: u32) -> &mut Index {
        if self.by_pred.len() <= p as usize {
            self.by_pred.resize_with(p as usize + 1, Default::default);
        }
        &mut self.by_pred[p as usize]
    }
}

/// Arena 1 holds the probabilistic facts; arena `p + 2` the
/// certain clauses of predicate `p`.
const PROB: u32 = 1;

/// A clause database indexed by functor/arity and first argument. Cloning
/// is cheap: the symbol table and every predicate are shared until one
/// side changes them.
#[derive(Debug, Clone, Default)]
pub struct Database {
    syms: Arc<Interner>,
    ids: FxMap<(Sym, u32), u32>,
    preds: Vec<Arc<Pred>>,
    prob: Arc<Prob>,
}

impl Database {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a clause whose head has already been validated as callable
    /// (atom or compound). Pre-validated internal paths use this; anything
    /// consuming user input goes through [`Database::try_assert`].
    pub fn assert(&mut self, c: Clause) {
        self.try_assert(c).expect("clause head must be callable");
    }

    /// Add a clause, rejecting non-callable heads (e.g. the fact `5.`,
    /// which parses but cannot be indexed) instead of panicking.
    pub fn try_assert(&mut self, c: Clause) -> Result<(), MachineError> {
        let p = self.pred_of(&c.head)?;
        let pred = Arc::make_mut(&mut self.preds[p as usize]);
        let t = pred.arena.compile(&c, &mut self.syms);
        let key = key_of(first_arg(&pred.arena.nodes, t.head));
        pred.index.push(pred.clauses.len() as u32, key);
        pred.clauses.push(t);
        Ok(())
    }

    /// Remove every clause of a functor/arity (used to swap per-state
    /// `configs` facts between search states).
    pub fn retract_all(&mut self, functor: &str, arity: usize) {
        let Some(p) = self
            .syms
            .get(functor)
            .and_then(|f| self.ids.get(&(f, arity as u32)).copied())
        else {
            return;
        };
        let pred = &mut self.preds[p as usize];
        if !pred.clauses.is_empty() {
            let pred = Arc::make_mut(pred);
            pred.arena.clear();
            pred.clauses.clear();
            pred.index = Index::default();
        }
    }

    pub fn len(&self) -> usize {
        self.preds.iter().map(|p| p.clauses.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Add an annotated-disjunction group: exactly one of `alts` holds in
    /// a realization, picked by index.
    pub(crate) fn add_group(&mut self, alts: &[Term]) -> Result<(), MachineError> {
        let g = self.prob.groups.len() as u32;
        let mut compiled = Vec::with_capacity(alts.len());
        for t in alts {
            let p = self.pred_of(t)?;
            let prob = Arc::make_mut(&mut self.prob);
            compiled.push((
                p,
                prob.arena.compile(&Clause::fact(t.clone()), &mut self.syms),
            ));
        }
        let prob = Arc::make_mut(&mut self.prob);
        // Index the group under each predicate it can yield, keyed when all
        // of that predicate's alternatives share one first-argument key.
        for (i, &(p, t)) in compiled.iter().enumerate() {
            if compiled[..i].iter().any(|&(q, _)| q == p) {
                continue;
            }
            let mut keys = compiled
                .iter()
                .filter(|&&(q, _)| q == p)
                .map(|&(_, t)| key_of(first_arg(&prob.arena.nodes, t.head)));
            let first = key_of(first_arg(&prob.arena.nodes, t.head));
            let key = if keys.all(|k| k.is_some() && k == first) {
                first
            } else {
                None
            };
            prob.by_pred(p).push(g, key);
        }
        prob.groups.push(compiled);
        Ok(())
    }

    /// The predicate id of a clause head, creating the predicate if new.
    fn pred_of(&mut self, head: &Term) -> Result<u32, MachineError> {
        let (f, n) = head
            .functor()
            .ok_or_else(|| MachineError(format!("clause head is not callable: {head}")))?;
        let key = (intern(&mut self.syms, f), n as u32);
        if let Some(&p) = self.ids.get(&key) {
            return Ok(p);
        }
        self.preds.push(Arc::default());
        self.ids.insert(key, self.preds.len() as u32 - 1);
        Ok(self.preds.len() as u32 - 1)
    }

    #[inline]
    pub(crate) fn arena(&self, area: u32) -> &[Node] {
        match area {
            PROB => &self.prob.arena.nodes,
            a => &self.preds[a as usize - 2].arena.nodes,
        }
    }

    #[inline]
    fn goals(&self, area: u32) -> &[u32] {
        match area {
            PROB => &self.prob.arena.goals,
            a => &self.preds[a as usize - 2].arena.goals,
        }
    }

    pub(crate) fn name(&self, s: Sym) -> &str {
        &self.syms.names[s as usize]
    }

    pub(crate) fn syms_mut(&mut self) -> &mut Arc<Interner> {
        &mut self.syms
    }
}

/// The first argument of the compound at `head`, if it has one.
fn first_arg(nodes: &[Node], head: u32) -> Option<Node> {
    match nodes[head as usize] {
        Node::Struct { n, args, .. } if n > 0 => Some(nodes[args as usize]),
        _ => None,
    }
}

/// Where resolution continues: goal `pos` of frame `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cont {
    frame: u32,
    pos: u32,
}

impl Cont {
    /// Past the query's last goal: a solution.
    const DONE: Cont = Cont {
        frame: u32::MAX,
        pos: 0,
    };
}

#[derive(Debug, Clone, Copy)]
enum FrameKind {
    /// The body of an activated clause template.
    Body { area: u32, start: u32, len: u32 },
    /// The two sides of a `,/2` goal; the reference is its first argument.
    Conj(TRef),
    /// One goal: the query, or the goal of `findall` / `setof` / `\+`.
    Single(TRef),
    /// Reached when the goal of the `findall`/`setof` whose barrier is
    /// choice point `cp` has a solution.
    Collect(u32),
    /// Reached when the goal of the `\+` whose barrier is `cp` succeeds.
    Naf(u32),
}

/// A continuation frame. Frames are never changed once pushed, so every
/// choice point that resumes one shares it.
#[derive(Debug, Clone, Copy)]
struct Frame {
    kind: FrameKind,
    env: u32,
    /// Choice-point height when the clause's predicate was called: a cut
    /// in the body pops back to it.
    cut: u32,
    parent: Cont,
}

/// Where a call's candidate clauses stand: phase 0 walks the certain
/// clauses, 1 the realization's group facts.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    pred: u32,
    phase: u8,
    key: KeySel,
    list: u32,
    pos: u32,
}

#[derive(Debug, Clone, Copy)]
enum Alt {
    /// The remaining candidate clauses of a call.
    Clauses {
        goal: TRef,
        cursor: Cursor,
        cut: u32,
    },
    /// `member/2`: the list cells not tried yet.
    Member { x: TRef, rest: TRef },
    /// `append/3` enumerating splits of a list of `len` items.
    Append {
        a: TRef,
        b: TRef,
        list: TRef,
        split: u32,
        len: u32,
    },
    /// The barrier of a `findall`/`setof`: solutions collected since
    /// `bag`/`sols` are built into a list when its goal is exhausted.
    Collect {
        template: TRef,
        result: TRef,
        setof: bool,
        bag: u32,
        sols: u32,
    },
    /// The barrier of a `\+`: reaching it means the goal failed.
    Naf,
}

#[derive(Debug, Clone, Copy)]
struct ChoicePoint {
    alt: Alt,
    cont: Cont,
    mark: Mark,
    frames: u32,
}

enum Next {
    Goal(TRef, Cont, Option<u32>),
    Cut(u32, Cont),
    Solution,
    Collect(u32),
    NafSucceeded(u32),
}

/// A query compiled onto heap cells, with its variable names by slot.
#[derive(Debug, Clone)]
struct Query {
    term: Term,
    nodes: Vec<Node>,
    names: Vec<String>,
}

/// Compiled queries kept per machine: the Monte-Carlo loop asks the same
/// few queries over and over.
const QUERY_CACHE: usize = 8;

/// The interpreter. Its stacks are reset at the start of every query and
/// reused, so results never depend on what it ran before.
#[derive(Debug, Clone, Default)]
pub struct Machine {
    pub(crate) db: Database,
    /// Step budget per query: resolution steps plus the term cells that
    /// unification, comparison and copying visit. Guards against runaway
    /// user programs (None = unlimited).
    pub step_limit: Option<u64>,
    store: Store,
    frames: Vec<Frame>,
    cps: Vec<ChoicePoint>,
    /// Collected `findall` solutions of every open barrier, each
    /// self-contained, and where each solution starts.
    bag: Vec<Node>,
    sols: Vec<u32>,
    /// Reused work space: `setof` roots, `findall` copying, the standard
    /// order and arithmetic.
    roots: Vec<TRef>,
    copy: Vec<(TRef, u32)>,
    fresh: Vec<u32>,
    order: Vec<(TRef, TRef, bool)>,
    arith: Vec<Arith>,
    values: Vec<f64>,
    queries: Vec<Query>,
    /// The current realization: the chosen alternative of every group
    /// (empty: none sampled).
    pub(crate) chosen: Vec<u32>,
}

/// One solution of a query, as [`Machine::run`] reports it.
pub struct Answer<'m> {
    m: &'m Machine,
    q: usize,
}

impl Answer<'_> {
    /// The query term with every binding of this solution substituted.
    pub fn term(&self) -> Term {
        let names = &self.m.queries[self.q].names;
        self.m
            .store
            .resolve(&self.m.db, TRef::heap(0), usize::MAX, &|s| {
                names
                    .get(s as usize)
                    .cloned()
                    .unwrap_or_else(|| format!("_G{s}"))
            })
    }

    /// The value of query variable `var` if it is bound to a number.
    pub fn num(&self, var: &str) -> Option<f64> {
        let s = self.m.queries[self.q].names.iter().position(|n| n == var)?;
        match self.m.store.deref_slot(&self.m.db, s as u32) {
            View::Num(x) => Some(x),
            _ => None,
        }
    }
}

/// Work of the arithmetic evaluator's stack.
#[derive(Debug, Clone, Copy)]
enum Arith {
    Eval(TRef),
    Negate,
    Apply(Sym),
}

impl Machine {
    pub fn new(db: Database) -> Self {
        Machine {
            db,
            ..Machine::default()
        }
    }

    /// Steps the last query took (see [`Machine::step_limit`]).
    pub fn steps(&self) -> u64 {
        self.store.steps
    }

    /// All solutions of `query`, each reported as the resolved query term.
    pub fn solve_all(&mut self, query: &Term) -> Result<Vec<Term>, MachineError> {
        let mut out = Vec::new();
        self.run(query, &mut |a| {
            out.push(a.term());
            true
        })?;
        Ok(out)
    }

    /// Whether the query has at least one solution.
    pub fn provable(&mut self, query: &Term) -> Result<bool, MachineError> {
        let mut found = false;
        self.run(query, &mut |_| {
            found = true;
            false
        })?;
        Ok(found)
    }

    /// Run `query`, invoking `on_solution` for each solution in order; the
    /// callback returns `false` to stop the search.
    pub fn run(
        &mut self,
        query: &Term,
        on_solution: &mut dyn FnMut(&Answer) -> bool,
    ) -> Result<(), MachineError> {
        let q = self.compile_query(query);
        self.store.reset(self.step_limit);
        self.frames.clear();
        self.cps.clear();
        self.bag.clear();
        self.sols.clear();
        let compiled = &self.queries[q];
        self.store.heap.extend_from_slice(&compiled.nodes);
        self.store.alloc(compiled.names.len() as u32);
        self.frames.push(Frame {
            kind: FrameKind::Single(TRef::heap(0)),
            env: 0,
            cut: 0,
            parent: Cont::DONE,
        });
        let mut cont = Cont { frame: 0, pos: 0 };
        loop {
            self.store.tick()?;
            let next = match self.next(cont) {
                Next::Goal(goal, k, finished) => {
                    if let Some(f) = finished {
                        self.drop_finished(f);
                    }
                    self.call(goal, k)?
                }
                Next::Cut(height, k) => {
                    self.cps.truncate(height as usize);
                    Some(k)
                }
                Next::Solution => {
                    if !on_solution(&Answer { m: self, q }) {
                        return Ok(());
                    }
                    None
                }
                Next::Collect(cp) => {
                    self.record(cp)?;
                    None
                }
                Next::NafSucceeded(cp) => {
                    self.cps.truncate(cp as usize);
                    None
                }
            };
            cont = match next {
                Some(k) => k,
                None => match self.backtrack()? {
                    Some(k) => k,
                    None => return Ok(()),
                },
            };
        }
    }

    fn compile_query(&mut self, query: &Term) -> usize {
        if let Some(i) = self.queries.iter().position(|c| c.term == *query) {
            return i;
        }
        let mut nodes = vec![Node::Nil];
        let mut names = Vec::new();
        nodes[0] = compile_term(query, &mut nodes, self.db.syms_mut(), &mut names);
        if self.queries.len() == QUERY_CACHE {
            self.queries.remove(0);
        }
        self.queries.push(Query {
            term: query.clone(),
            nodes,
            names,
        });
        self.queries.len() - 1
    }

    /// The next goal to prove from continuation `c`, or what reaching the
    /// end of a frame means. A goal that is its frame's last comes with
    /// the frame's parent as its continuation and the frame's index, which
    /// nothing needs any more unless a choice point was made since.
    fn next(&self, mut c: Cont) -> Next {
        loop {
            let Some(fr) = self.frames.get(c.frame as usize) else {
                return Next::Solution;
            };
            let len = match fr.kind {
                FrameKind::Body { len, .. } => len,
                FrameKind::Conj(_) => 2,
                FrameKind::Single(_) => 1,
                FrameKind::Collect(cp) => return Next::Collect(cp),
                FrameKind::Naf(cp) => return Next::NafSucceeded(cp),
            };
            if c.pos >= len {
                c = fr.parent;
                continue;
            }
            let (after, finished) = if c.pos + 1 == len {
                (fr.parent, Some(c.frame))
            } else {
                (
                    Cont {
                        frame: c.frame,
                        pos: c.pos + 1,
                    },
                    None,
                )
            };
            let goal = match fr.kind {
                FrameKind::Body { area, start, .. } => {
                    let idx = self.db.goals(area)[(start + c.pos) as usize];
                    if self.db.arena(area)[idx as usize] == Node::Cut {
                        return Next::Cut(fr.cut, after);
                    }
                    TRef {
                        area,
                        idx,
                        env: fr.env,
                    }
                }
                FrameKind::Conj(args) => args.arg(c.pos),
                FrameKind::Single(goal) => goal,
                FrameKind::Collect(_) | FrameKind::Naf(_) => unreachable!("handled above"),
            };
            return Next::Goal(goal, after, finished);
        }
    }

    /// Drop frame `f` once its last goal is running, if it is the newest
    /// frame and no choice point can resume it: a tail-recursive loop then
    /// runs in constant frame space.
    fn drop_finished(&mut self, f: u32) {
        let floor = self.cps.last().map_or(0, |cp| cp.frames);
        if f as usize + 1 == self.frames.len() && f >= floor {
            self.frames.pop();
        }
    }

    fn push_frame(&mut self, kind: FrameKind, env: u32, cut: u32, parent: Cont) -> Cont {
        self.frames.push(Frame {
            kind,
            env,
            cut,
            parent,
        });
        Cont {
            frame: self.frames.len() as u32 - 1,
            pos: 0,
        }
    }

    fn push_cp(&mut self, alt: Alt, cont: Cont, mark: Mark, frames: u32) {
        self.cps.push(ChoicePoint {
            alt,
            cont,
            mark,
            frames,
        });
    }

    /// A term for an error message.
    fn show(&self, t: TRef) -> Term {
        self.store.resolve(&self.db, t, 16, &|s| format!("_G{s}"))
    }

    /// Prove `goal`, continuing with `k`: the continuation to follow, or
    /// `None` to backtrack.
    fn call(&mut self, goal: TRef, k: Cont) -> Result<Option<Cont>, MachineError> {
        let (goal, v) = self.store.deref(&self.db, goal);
        let (f, n, args) = match v {
            View::Atom(sym::TRUE) => return Ok(Some(k)),
            View::Atom(sym::FAIL | sym::FALSE) => return Ok(None),
            View::Atom(a) => return self.call_pred(goal, a, 0, goal, k),
            View::Struct(f, n, args) => (f, n, args),
            _ => {
                return Err(MachineError(format!(
                    "goal is not callable: {}",
                    self.show(goal)
                )))
            }
        };
        let a = |i| args.arg(i);
        let ok = |b: bool| if b { Some(k) } else { None };
        match (f, n) {
            (sym::CONJ, 2) => Ok(Some(self.push_frame(FrameKind::Conj(args), 0, 0, k))),
            (sym::IS, 2) => {
                let v = self.eval(a(1))?;
                Ok(ok(self.unify_num(a(0), v)?))
            }
            (sym::LT | sym::GT | sym::LE | sym::GE | sym::ARITH_EQ, 2) => {
                let x = self.eval(a(0))?;
                let y = self.eval(a(1))?;
                Ok(ok(match f {
                    sym::LT => x < y,
                    sym::GT => x > y,
                    sym::LE => x <= y,
                    sym::GE => x >= y,
                    _ => x == y,
                }))
            }
            (sym::IDENTICAL | sym::NOT_IDENTICAL, 2) => {
                let same = self.store.identical(&self.db, a(0), a(1))?;
                Ok(ok(same == (f == sym::IDENTICAL)))
            }
            (sym::UNIFY, 2) => Ok(ok(self.store.unify(&self.db, a(0), a(1))?)),
            (sym::FINDALL | sym::SETOF, 3) => {
                let alt = Alt::Collect {
                    template: a(0),
                    result: a(2),
                    setof: f == sym::SETOF,
                    bag: self.bag.len() as u32,
                    sols: self.sols.len() as u32,
                };
                Ok(Some(self.barrier(alt, a(1), k)))
            }
            (sym::NOT | sym::NAF, 1) => Ok(Some(self.barrier(Alt::Naf, a(0), k))),
            (sym::SUM, 2) => {
                self.list_len(a(0))?;
                let mut s = 0.0;
                let mut cell = a(0);
                while let View::Cons(c) = self.store.deref(&self.db, cell).1 {
                    match self.store.deref(&self.db, c).1 {
                        View::Num(x) => s += x,
                        _ => return Err(MachineError(format!("sum: non-number {}", self.show(c)))),
                    }
                    cell = c.arg(1);
                }
                Ok(ok(self.unify_num(a(1), s)?))
            }
            (sym::MAX | sym::MIN, 2) => {
                if self.list_len(a(0))? == 0 {
                    return Ok(None);
                }
                let View::Cons(mut cell) = self.store.deref(&self.db, a(0)).1 else {
                    return Ok(None);
                };
                // `Iterator::max_by` semantics: a later element replaces the
                // best unless the best compares strictly better, and keys
                // that do not compare count as equal.
                let (mut best, mut best_key) = (cell, self.sort_key(cell)?);
                while let View::Cons(c) = self.store.deref(&self.db, cell.arg(1)).1 {
                    cell = c;
                    let key = self.sort_key(c)?;
                    let ord = best_key
                        .partial_cmp(&key)
                        .unwrap_or(std::cmp::Ordering::Equal);
                    let keep = if f == sym::MAX {
                        ord == std::cmp::Ordering::Greater
                    } else {
                        ord == std::cmp::Ordering::Less
                    };
                    if !keep {
                        (best, best_key) = (c, key);
                    }
                }
                Ok(ok(self.store.unify(&self.db, a(1), best)?))
            }
            (sym::LENGTH, 2) => {
                let len = self.list_len(a(0))?;
                Ok(ok(self.unify_num(a(1), len as f64)?))
            }
            (sym::MEMBER, 2) => {
                self.list_len(a(1))?;
                self.try_member(a(0), a(1), k)
            }
            (sym::APPEND, 3) => {
                if self.list_len(a(0)).is_ok() && self.list_len(a(1)).is_ok() {
                    let joined = self.copy_list(a(0), usize::MAX, Some(a(1)));
                    return Ok(ok(self.store.unify(&self.db, a(2), joined)?));
                }
                let len = self.list_len(a(2))?;
                self.try_append(a(0), a(1), a(2), 0, len, k)
            }
            _ => self.call_pred(goal, f, n, args, k),
        }
    }

    /// Push a barrier choice point and run `goal` above it, ending in a
    /// `Collect` or `Naf` frame.
    fn barrier(&mut self, alt: Alt, goal: TRef, k: Cont) -> Cont {
        let (mark, frames) = (self.store.mark(), self.frames.len() as u32);
        self.push_cp(alt, k, mark, frames);
        let cp = self.cps.len() as u32 - 1;
        let end = match alt {
            Alt::Naf => FrameKind::Naf(cp),
            _ => FrameKind::Collect(cp),
        };
        let end = self.push_frame(end, 0, 0, Cont::DONE);
        self.push_frame(FrameKind::Single(goal), 0, 0, end)
    }

    fn call_pred(
        &mut self,
        goal: TRef,
        f: Sym,
        n: u32,
        args: TRef,
        k: Cont,
    ) -> Result<Option<Cont>, MachineError> {
        let Some(&pred) = self.db.ids.get(&(f, n)) else {
            return Ok(None);
        };
        let key = if n == 0 {
            KeySel::All
        } else {
            KeySel::of(self.store.deref(&self.db, args).1)
        };
        let cursor = Cursor {
            pred,
            phase: 0,
            key,
            list: self.db.preds[pred as usize].index.select(key),
            pos: 0,
        };
        self.try_clauses(goal, cursor, self.cps.len() as u32, k)
    }

    /// The next candidate clause of a call: its arena and template.
    fn advance(&self, c: &mut Cursor) -> Option<(u32, Template)> {
        if c.phase == 0 {
            let pred = &self.db.preds[c.pred as usize];
            if let Some(&i) = pred.index.list(c.list).get(c.pos as usize) {
                c.pos += 1;
                return Some((c.pred + 2, pred.clauses[i as usize]));
            }
            let ix = self.db.prob.by_pred.get(c.pred as usize)?;
            if self.chosen.is_empty() {
                return None;
            }
            c.phase = 1;
            c.pos = 0;
            c.list = ix.select(c.key);
        }
        let list = self.db.prob.by_pred[c.pred as usize].list(c.list);
        while let Some(&g) = list.get(c.pos as usize) {
            c.pos += 1;
            let alt = self.chosen[g as usize] as usize;
            let (q, t) = self.db.prob.groups[g as usize][alt];
            if q == c.pred {
                return Some((PROB, t));
            }
        }
        None
    }

    /// Try the candidates from `cursor` on: the first whose head unifies
    /// is activated, and a choice point keeps the rest if any are left.
    fn try_clauses(
        &mut self,
        goal: TRef,
        mut cursor: Cursor,
        cut: u32,
        k: Cont,
    ) -> Result<Option<Cont>, MachineError> {
        let (mark, frames) = (self.store.mark(), self.frames.len() as u32);
        let mut next = self.advance(&mut cursor);
        while let Some((area, t)) = next {
            let rest = cursor;
            next = self.advance(&mut cursor);
            let env = self.store.alloc(t.vars);
            let head = TRef {
                area,
                idx: t.head,
                env,
            };
            if self.store.unify(&self.db, goal, head)? {
                if next.is_some() {
                    let alt = Alt::Clauses {
                        goal,
                        cursor: rest,
                        cut,
                    };
                    self.push_cp(alt, k, mark, frames);
                }
                if t.len == 0 {
                    return Ok(Some(k));
                }
                let body = FrameKind::Body {
                    area,
                    start: t.body,
                    len: t.len,
                };
                return Ok(Some(self.push_frame(body, env, cut, k)));
            }
            self.store.undo(mark);
        }
        Ok(None)
    }

    /// `member/2` from list cell `list` on.
    fn try_member(&mut self, x: TRef, list: TRef, k: Cont) -> Result<Option<Cont>, MachineError> {
        let (mark, frames) = (self.store.mark(), self.frames.len() as u32);
        let mut list = list;
        while let View::Cons(c) = self.store.deref(&self.db, list).1 {
            let rest = c.arg(1);
            if self.store.unify(&self.db, x, c)? {
                if matches!(self.store.deref(&self.db, rest).1, View::Cons(_)) {
                    self.push_cp(Alt::Member { x, rest }, k, mark, frames);
                }
                return Ok(Some(k));
            }
            self.store.undo(mark);
            list = rest;
        }
        Ok(None)
    }

    /// `append(A, B, List)` splitting `List` (of `len` items) after
    /// `split` items and on.
    fn try_append(
        &mut self,
        a: TRef,
        b: TRef,
        list: TRef,
        split: u32,
        len: u32,
        k: Cont,
    ) -> Result<Option<Cont>, MachineError> {
        let (mark, frames) = (self.store.mark(), self.frames.len() as u32);
        for split in split..=len {
            let prefix = self.copy_list(list, split as usize, None);
            let mut suffix = list;
            for _ in 0..split {
                if let View::Cons(c) = self.store.deref(&self.db, suffix).1 {
                    suffix = c.arg(1);
                }
            }
            if self.store.unify(&self.db, a, prefix)? && self.store.unify(&self.db, b, suffix)? {
                if split < len {
                    let alt = Alt::Append {
                        a,
                        b,
                        list,
                        split: split + 1,
                        len,
                    };
                    self.push_cp(alt, k, mark, frames);
                }
                return Ok(Some(k));
            }
            self.store.undo(mark);
        }
        Ok(None)
    }

    /// Resume the newest choice point: restore its marks and try its next
    /// alternative. `None` when no choice point is left.
    fn backtrack(&mut self) -> Result<Option<Cont>, MachineError> {
        while let Some(cp) = self.cps.pop() {
            self.store.undo(cp.mark);
            self.frames.truncate(cp.frames as usize);
            let k = cp.cont;
            let found = match cp.alt {
                Alt::Clauses { goal, cursor, cut } => self.try_clauses(goal, cursor, cut, k)?,
                Alt::Member { x, rest } => self.try_member(x, rest, k)?,
                Alt::Append {
                    a,
                    b,
                    list,
                    split,
                    len,
                } => self.try_append(a, b, list, split, len, k)?,
                Alt::Collect {
                    result,
                    setof,
                    bag,
                    sols,
                    ..
                } => self.finish_collect(result, setof, bag, sols)?.then_some(k),
                Alt::Naf => Some(k),
            };
            if found.is_some() {
                return Ok(found);
            }
        }
        Ok(None)
    }

    /// Copy one solution's instance of the template of the `findall`
    /// barrier `cp` into the bag. Variables bound before the barrier stay
    /// shared; variables made since are renumbered per solution.
    fn record(&mut self, cp: u32) -> Result<(), MachineError> {
        let ChoicePoint {
            alt: Alt::Collect { template, .. },
            mark,
            ..
        } = self.cps[cp as usize]
        else {
            return Err(MachineError("findall barrier lost".into()));
        };
        self.fresh.clear();
        self.copy.clear();
        self.sols.push(self.bag.len() as u32);
        self.bag.push(Node::Nil);
        self.copy.push((template, self.bag.len() as u32 - 1));
        while let Some((src, dst)) = self.copy.pop() {
            self.store.tick()?;
            let node = match self.store.deref(&self.db, src).1 {
                View::Var(s) if s < mark.slots => Node::Var(s),
                View::Var(s) => match self.fresh.iter().position(|&f| f == s) {
                    Some(i) => Node::Fresh(i as u32),
                    None => {
                        self.fresh.push(s);
                        Node::Fresh(self.fresh.len() as u32 - 1)
                    }
                },
                View::Atom(a) => Node::Atom(a),
                View::Num(x) => Node::Num(x),
                View::Nil => Node::Nil,
                View::Struct(f, n, args) => {
                    let base = self.bag.len() as u32;
                    self.bag.resize(self.bag.len() + n as usize, Node::Nil);
                    for i in (0..n).rev() {
                        self.copy.push((args.arg(i), base + i));
                    }
                    Node::Struct { f, n, args: base }
                }
                View::Cons(c) => {
                    let base = self.bag.len() as u32;
                    self.bag.resize(self.bag.len() + 2, Node::Nil);
                    self.copy.push((c.arg(1), base + 1));
                    self.copy.push((c, base));
                    Node::Cons { args: base }
                }
            };
            self.bag[dst as usize] = node;
        }
        Ok(())
    }

    /// The goal of a `findall`/`setof` is exhausted: copy the bag's
    /// solutions from `bag`/`sols` on back to the heap, sort them for
    /// `setof`, and unify the list with `result`.
    fn finish_collect(
        &mut self,
        result: TRef,
        setof: bool,
        bag: u32,
        sols: u32,
    ) -> Result<bool, MachineError> {
        let mut roots = std::mem::take(&mut self.roots);
        roots.clear();
        for i in sols as usize..self.sols.len() {
            let start = self.sols[i] as usize;
            let end = self.sols.get(i + 1).map_or(self.bag.len(), |&e| e as usize);
            let base = self.store.heap.len() as u32;
            let mut fresh = 0;
            for n in &self.bag[start..end] {
                if let Node::Fresh(v) = n {
                    fresh = fresh.max(v + 1);
                }
            }
            let first = self.store.alloc(fresh);
            let shift = |at: u32| at - start as u32 + base;
            for &n in &self.bag[start..end] {
                self.store.heap.push(match n {
                    Node::Struct { f, n, args } => Node::Struct {
                        f,
                        n,
                        args: shift(args),
                    },
                    Node::Cons { args } => Node::Cons { args: shift(args) },
                    Node::Fresh(v) => Node::Var(first + v),
                    other => other,
                });
            }
            roots.push(TRef::heap(base));
        }
        self.bag.truncate(bag as usize);
        self.sols.truncate(sols as usize);
        if setof {
            let (store, db, order) = (&self.store, &self.db, &mut self.order);
            roots.sort_by(|a, b| store.compare(db, *a, *b, order));
            let mut kept = 0;
            for i in 0..roots.len() {
                if kept > 0 && self.store.identical(&self.db, roots[kept - 1], roots[i])? {
                    continue;
                }
                roots[kept] = roots[i];
                kept += 1;
            }
            roots.truncate(kept);
        }
        let list = self.store.push(Node::Nil);
        let mut tail = list.idx as usize;
        for r in &roots {
            let cell = self.store.heap.len();
            let head = self.store.heap[r.idx as usize];
            self.store.heap.extend([head, Node::Nil]);
            self.store.heap[tail] = Node::Cons { args: cell as u32 };
            tail = cell + 1;
        }
        let empty = roots.is_empty();
        self.roots = roots;
        if setof && empty {
            return Ok(false);
        }
        self.store.unify(&self.db, result, list)
    }

    /// The number of items of a proper list; an error for anything else.
    fn list_len(&mut self, t: TRef) -> Result<u32, MachineError> {
        let mut len = 0;
        let mut cell = t;
        loop {
            self.store.tick()?;
            match self.store.deref(&self.db, cell).1 {
                View::Nil => return Ok(len),
                View::Cons(c) => {
                    len += 1;
                    cell = c.arg(1);
                }
                _ => {
                    return Err(MachineError(format!(
                        "expected a proper list, got {}",
                        self.show(t)
                    )))
                }
            }
        }
    }

    fn unify_num(&mut self, t: TRef, x: f64) -> Result<bool, MachineError> {
        let num = self.store.push(Node::Num(x));
        self.store.unify(&self.db, t, num)
    }

    /// A heap list of the first `take` items of list `t`, ending in `tail`
    /// (or `[]`).
    fn copy_list(&mut self, t: TRef, take: usize, tail: Option<TRef>) -> TRef {
        let list = self.store.push(Node::Nil);
        let mut last = list.idx as usize;
        let mut cell = t;
        for _ in 0..take {
            let View::Cons(c) = self.store.deref(&self.db, cell).1 else {
                break;
            };
            let head = self.store.heap_ref(c);
            let at = self.store.heap.len();
            self.store.heap.extend([head, Node::Nil]);
            self.store.heap[last] = Node::Cons { args: at as u32 };
            last = at + 1;
            cell = c.arg(1);
        }
        if let Some(t) = tail {
            self.store.heap[last] = self.store.heap_ref(t);
        }
        list
    }

    /// The key `max`/`min` compare: a number, or the trailing number of a
    /// `[Tag, Value]` list (Example 1's pair convention); NaN otherwise.
    fn sort_key(&mut self, t: TRef) -> Result<f64, MachineError> {
        let mut cell = match self.store.deref(&self.db, t).1 {
            View::Num(x) => return Ok(x),
            View::Cons(c) => c,
            _ => return Ok(f64::NAN),
        };
        while let View::Cons(c) = self.store.deref(&self.db, cell.arg(1)).1 {
            self.store.tick()?;
            cell = c;
        }
        Ok(match self.store.deref(&self.db, cell).1 {
            View::Num(x) => x,
            _ => f64::NAN,
        })
    }

    /// Arithmetic evaluation for `is` and comparisons, on an explicit
    /// stack: operands left to right, then the operator.
    fn eval(&mut self, t: TRef) -> Result<f64, MachineError> {
        self.arith.clear();
        self.values.clear();
        self.arith.push(Arith::Eval(t));
        while let Some(w) = self.arith.pop() {
            self.store.tick()?;
            match w {
                Arith::Eval(t) => match self.store.deref(&self.db, t).1 {
                    View::Num(x) => self.values.push(x),
                    View::Struct(op, 2, args) => {
                        self.arith.push(Arith::Apply(op));
                        self.arith.push(Arith::Eval(args.arg(1)));
                        self.arith.push(Arith::Eval(args.arg(0)));
                    }
                    View::Struct(sym::MINUS, 1, args) => {
                        self.arith.push(Arith::Negate);
                        self.arith.push(Arith::Eval(args));
                    }
                    View::Var(_) => {
                        return Err(MachineError(format!(
                            "unbound variable {} in arithmetic",
                            self.show(t)
                        )))
                    }
                    _ => {
                        return Err(MachineError(format!(
                            "non-arithmetic term {}",
                            self.show(t)
                        )))
                    }
                },
                Arith::Negate => {
                    let x = self.values.pop().unwrap_or(f64::NAN);
                    self.values.push(-x);
                }
                Arith::Apply(op) => {
                    let y = self.values.pop().unwrap_or(f64::NAN);
                    let x = self.values.pop().unwrap_or(f64::NAN);
                    self.values.push(match op {
                        sym::PLUS => x + y,
                        sym::MINUS => x - y,
                        sym::TIMES => x * y,
                        sym::DIVIDE if y == 0.0 => {
                            return Err(MachineError("division by zero".into()))
                        }
                        sym::DIVIDE => x / y,
                        sym::MIN => x.min(y),
                        sym::MAX => x.max(y),
                        sym::POW => x.powf(y),
                        _ => {
                            return Err(MachineError(format!(
                                "unknown arithmetic operator {}",
                                self.db.name(op)
                            )))
                        }
                    });
                }
            }
        }
        Ok(self.values.pop().unwrap_or(f64::NAN))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_clauses;

    fn machine(src: &str) -> Machine {
        let mut db = Database::new();
        for c in parse_clauses(src).unwrap() {
            db.assert(c);
        }
        Machine::new(db)
    }

    fn q(m: &mut Machine, query: &str) -> Vec<String> {
        let t = crate::parser::parse_query(query).unwrap();
        m.solve_all(&t)
            .unwrap()
            .into_iter()
            .map(|t| t.to_string())
            .collect()
    }

    #[test]
    fn facts_and_conjunction() {
        let mut m = machine("parent(a,b). parent(b,c). grand(X,Z) :- parent(X,Y), parent(Y,Z).");
        assert_eq!(q(&mut m, "grand(X,Z)"), vec!["grand(a,c)"]);
    }

    #[test]
    fn recursion_ancestor() {
        let mut m = machine(
            "parent(a,b). parent(b,c). parent(c,d).
             anc(X,Y) :- parent(X,Y).
             anc(X,Z) :- parent(X,Y), anc(Y,Z).",
        );
        let sols = q(&mut m, "anc(a,W)");
        assert_eq!(sols, vec!["anc(a,b)", "anc(a,c)", "anc(a,d)"]);
    }

    #[test]
    fn arithmetic_is() {
        let mut m = machine("double(X,Y) :- Y is X*2.");
        assert_eq!(q(&mut m, "double(21,Y)"), vec!["double(21,42)"]);
    }

    #[test]
    fn comparisons_filter() {
        let mut m = machine("n(1). n(2). n(3). big(X) :- n(X), X >= 2.");
        assert_eq!(q(&mut m, "big(X)"), vec!["big(2)", "big(3)"]);
    }

    #[test]
    fn structural_equality() {
        let mut m = machine("p(a). p(b). diff(X,Y) :- p(X), p(Y), X \\== Y.");
        assert_eq!(q(&mut m, "diff(X,Y)"), vec!["diff(a,b)", "diff(b,a)"]);
    }

    #[test]
    fn findall_collects_everything() {
        // The template variable stays unbound outside findall; only the
        // collected list is visible.
        let mut m = machine("n(1). n(2). n(3).");
        assert_eq!(
            q(&mut m, "findall(X, n(X), L)"),
            vec!["findall(X,n(X),[1,2,3])"]
        );
    }

    #[test]
    fn findall_then_sum() {
        let mut m = machine("cost(3). cost(4.5). total(S) :- findall(C, cost(C), L), sum(L, S).");
        assert_eq!(q(&mut m, "total(S)"), vec!["total(7.5)"]);
    }

    #[test]
    fn setof_sorts_and_dedups_and_fails_empty() {
        let mut m = machine("n(3). n(1). n(3).");
        assert_eq!(q(&mut m, "setof(X, n(X), L)"), vec!["setof(X,n(X),[1,3])"]);
        assert!(q(&mut m, "setof(X, zzz(X), L)").is_empty());
    }

    #[test]
    fn max_over_pairs_uses_trailing_value() {
        // Example 1's idiom: max(Set, [Path, T]) over [Z, T1] pairs.
        let mut m = machine("pair([a, 3]). pair([b, 7]). pair([c, 5]).");
        let sols = q(&mut m, "findall(P, pair(P), L), max(L, M)");
        assert_eq!(sols.len(), 1);
        assert!(sols[0].contains("[b,7]"), "got {}", sols[0]);
    }

    #[test]
    fn min_over_numbers() {
        let mut m = machine("");
        assert_eq!(q(&mut m, "min([3,1,2], M)"), vec!["min([3,1,2],1)"]);
    }

    #[test]
    fn cut_commits_to_first_clause() {
        let mut m = machine(
            "first(X) :- n(X), !.
             n(1). n(2). n(3).",
        );
        assert_eq!(q(&mut m, "first(X)"), vec!["first(1)"]);
    }

    #[test]
    fn cut_is_local_to_its_predicate() {
        let mut m = machine(
            "pick(X) :- n(X), !.
             n(1). n(2).
             outer(X,Y) :- m(Y), pick(X).
             m(a). m(b).",
        );
        // Cut inside pick/1 must not prune m/1's alternatives.
        assert_eq!(q(&mut m, "outer(X,Y)"), vec!["outer(1,a)", "outer(1,b)"]);
    }

    #[test]
    fn negation_as_failure() {
        let mut m = machine("n(1). n(2). absent(X) :- not(n(X)).");
        assert!(q(&mut m, "absent(3)").len() == 1);
        assert!(q(&mut m, "absent(1)").is_empty());
    }

    #[test]
    fn member_and_append_and_length() {
        let mut m = machine("");
        assert_eq!(
            q(&mut m, "member(X, [a,b])"),
            vec!["member(a,[a,b])", "member(b,[a,b])"]
        );
        assert_eq!(
            q(&mut m, "append([1],[2,3],L)"),
            vec!["append([1],[2,3],[1,2,3])"]
        );
        assert_eq!(q(&mut m, "length([a,b,c],N)"), vec!["length([a,b,c],3)"]);
    }

    #[test]
    fn unknown_predicate_fails_quietly() {
        let mut m = machine("p(a).");
        assert!(q(&mut m, "q(X)").is_empty());
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let mut m = machine("bad(Y) :- Y is 1/0.");
        let t = crate::parser::parse_query("bad(Y)").unwrap();
        assert!(m.solve_all(&t).is_err());
    }

    #[test]
    fn unbound_arithmetic_is_an_error() {
        let mut m = machine("");
        let t = crate::parser::parse_query("X is Y+1").unwrap();
        assert!(m.solve_all(&t).is_err());
    }

    #[test]
    fn step_limit_guards_infinite_loops() {
        let mut m = machine("loop :- loop.");
        m.step_limit = Some(10_000);
        let t = crate::parser::parse_query("loop").unwrap();
        assert!(m.solve_all(&t).is_err());
    }

    #[test]
    fn retract_all_swaps_facts() {
        let mut m = machine("cfg(t0, v0, 1).");
        assert_eq!(q(&mut m, "cfg(T,V,C)").len(), 1);
        m.db.retract_all("cfg", 3);
        assert!(q(&mut m, "cfg(T,V,C)").is_empty());
        m.db.assert(Clause::fact(
            crate::parser::parse_query("cfg(t0, v1, 1)").unwrap(),
        ));
        assert_eq!(q(&mut m, "cfg(T,V,C)"), vec!["cfg(t0,v1,1)"]);
    }

    #[test]
    fn unification_builtin() {
        let mut m = machine("");
        assert_eq!(q(&mut m, "f(X,2) = f(1,Y)"), vec!["=(f(1,2),f(1,2))"]);
    }

    #[test]
    fn activations_never_share_variables() {
        // Two activations of one clause get separate slots: X of the first
        // call stays 1 while the second binds its own X to 2.
        let mut m = machine("same(X, X).");
        assert_eq!(
            q(&mut m, "same(A, 1), same(B, 2)"),
            vec![",(same(1,1),same(2,2))"]
        );
    }

    #[test]
    fn max_and_min_ties_keep_the_last_best_element() {
        let mut m = machine("");
        assert_eq!(
            q(&mut m, "max([[a,3],[b,3],[c,1]], M)"),
            vec!["max([[a,3],[b,3],[c,1]],[b,3])"]
        );
        assert_eq!(
            q(&mut m, "min([[a,1],[b,1],[c,2]], M)"),
            vec!["min([[a,1],[b,1],[c,2]],[b,1])"]
        );
        // A non-numeric key compares equal to everything, so the scan
        // moves past it to whatever follows.
        assert_eq!(q(&mut m, "max([3, a, 1], M)"), vec!["max([3,a,1],1)"]);
        assert_eq!(q(&mut m, "min([2, 1, 1.0], M)"), vec!["min([2,1,1],1)"]);
        assert!(q(&mut m, "max([], M)").is_empty());
    }

    #[test]
    fn setof_orders_numbers_atoms_compounds_then_lists() {
        let mut m = machine("m(b). m(2). m([1,a]). m(f(x)). m(a). m(1). m([1]). m(2). m(f(a)).");
        assert_eq!(
            q(&mut m, "setof(X, m(X), L)"),
            vec!["setof(X,m(X),[1,2,a,b,f(a),f(x),[1],[1,a]])"]
        );
    }

    /// Solutions of a query assembled from parsed pieces, for the goal
    /// shapes the query syntax has no notation for: a parenthesized
    /// conjunction as an argument, and the `\\+` prefix.
    fn qt(m: &mut Machine, query: &Term) -> Vec<String> {
        m.solve_all(query)
            .unwrap()
            .into_iter()
            .map(|t| t.to_string())
            .collect()
    }

    fn pq(src: &str) -> Term {
        crate::parser::parse_query(src).unwrap()
    }

    fn conj(a: Term, b: Term) -> Term {
        Term::compound(",", vec![a, b])
    }

    #[test]
    fn cut_inside_findall() {
        let mut m = machine(
            "first(X) :- n(X), !.
             n(1). n(2). n(3).",
        );
        assert_eq!(
            q(&mut m, "findall(X, first(X), L)"),
            vec!["findall(X,first(X),[1])"]
        );
        // Only a cut at the top level of a clause body is a cut: nested in
        // a goal argument it is a call to the undefined predicate `!/0`,
        // which fails.
        let opaque = Term::compound(
            "findall",
            vec![pq("X"), conj(pq("n(X)"), Term::atom("!")), pq("L")],
        );
        assert_eq!(qt(&mut m, &opaque), vec!["findall(X,,(n(X),!),[])"]);
    }

    #[test]
    fn nested_findall() {
        let mut m = machine(
            "g(a). g(b). e(a,1). e(a,2). e(b,3).
             row(X, L) :- g(X), findall(Y, e(X,Y), L).",
        );
        assert_eq!(
            q(&mut m, "findall(L, row(X, L), R)"),
            vec!["findall(L,row(X,L),[[1,2],[3]])"]
        );
        let inline = Term::compound(
            "findall",
            vec![
                pq("L"),
                conj(pq("g(X)"), pq("findall(Y, e(X,Y), L)")),
                pq("R"),
            ],
        );
        assert_eq!(
            qt(&mut m, &inline),
            vec!["findall(L,,(g(X),findall(Y,e(X,Y),L)),[[1,2],[3]])"]
        );
    }

    #[test]
    fn negation_leaves_an_unbound_variable_unbound() {
        let mut m = machine("n(1).");
        let naf = |g: &str| conj(Term::compound("\\+", vec![pq(g)]), pq("X = 5"));
        assert!(qt(&mut m, &naf("n(X)")).is_empty());
        assert_eq!(qt(&mut m, &naf("zz(X)")), vec![",(\\+(zz(5)),=(5,5))"]);
    }
}
