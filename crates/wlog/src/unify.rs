//! Compiled terms, the binding store and unification.
//!
//! The interpreter never rebuilds a [`Term`] while it resolves. Clauses are
//! compiled once into flat [`Node`] arrays whose variables are numbered per
//! clause; activating a clause reserves a block of binding *slots* and the
//! pair (template, slot base) stands for the renamed clause. Terms built at
//! run time (query terms, `is` results, `findall` lists) live on a heap of
//! the same nodes whose variables name slots directly. A term is a
//! [`TRef`]: an arena, a node index and a slot base.
//!
//! Binding a slot pushes it onto the trail; backtracking unwinds the trail
//! to a mark and truncates the slot and heap stacks. There is no occurs
//! check: `X = f(X)` binds, and the step budget is what ends a traversal of
//! the cyclic term (every visited cell costs one step).

use crate::ast::Term;
use crate::machine::{Database, MachineError};
use std::cmp::Ordering;

/// An interned atom or functor name.
pub(crate) type Sym = u32;

/// One cell of a compiled term. Compound arguments sit contiguously,
/// starting at `args`; a list cell's head is at `args` and its tail at
/// `args + 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Node {
    /// In a clause template, slot `env + k` of the activation; on the heap,
    /// slot `k` itself.
    Var(u32),
    Atom(Sym),
    Num(f64),
    Struct {
        f: Sym,
        n: u32,
        args: u32,
    },
    Nil,
    Cons {
        args: u32,
    },
    /// A cut at the top level of a clause body (never an argument).
    Cut,
    /// Variable `k` of one collected `findall` solution, renumbered onto
    /// fresh slots when the solution is copied back to the heap.
    Fresh(u32),
}

/// The heap arena; arena 1 holds the probabilistic facts, and
/// arena `p + 2` the certain clauses of predicate `p`.
pub(crate) const HEAP: u32 = 0;

/// A term: node `idx` of arena `area`, its template variables offset by
/// `env`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TRef {
    pub area: u32,
    pub idx: u32,
    pub env: u32,
}

impl TRef {
    const UNBOUND: TRef = TRef {
        area: u32::MAX,
        idx: 0,
        env: 0,
    };

    pub fn heap(idx: u32) -> TRef {
        TRef {
            area: HEAP,
            idx,
            env: 0,
        }
    }

    /// Argument `i` of a compound (or list cell) whose arguments start here.
    pub fn arg(self, i: u32) -> TRef {
        TRef {
            idx: self.idx + i,
            ..self
        }
    }
}

/// A dereferenced term: what the cell at the end of a binding chain is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum View {
    /// An unbound variable, by slot.
    Var(u32),
    Atom(Sym),
    Num(f64),
    /// Functor, arity and the first argument.
    Struct(Sym, u32, TRef),
    Nil,
    /// A list cell: head at the reference, tail right after it.
    Cons(TRef),
}

/// The mutable half of the machine's term state: the heap, the binding
/// slots, the trail and the step counter. All of it is reset per query and
/// reused, so a query in steady state allocates nothing.
#[derive(Debug, Default, Clone)]
pub(crate) struct Store {
    pub heap: Vec<Node>,
    slots: Vec<TRef>,
    trail: Vec<u32>,
    pairs: Vec<(TRef, TRef)>,
    /// Steps taken by the current query: resolution steps plus term cells
    /// visited by unification, comparison and copying.
    pub steps: u64,
    /// Step budget of the current query (`u64::MAX` when unlimited).
    pub limit: u64,
}

/// A point the store can backtrack to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Mark {
    pub trail: u32,
    pub slots: u32,
    pub heap: u32,
}

impl Store {
    /// Forget everything: the start of a query.
    pub fn reset(&mut self, limit: Option<u64>) {
        self.heap.clear();
        self.slots.clear();
        self.trail.clear();
        self.steps = 0;
        self.limit = limit.unwrap_or(u64::MAX);
    }

    /// Charge one step against the query's budget.
    #[inline]
    pub fn tick(&mut self) -> Result<(), MachineError> {
        self.steps += 1;
        if self.steps > self.limit {
            return Err(MachineError(format!("step limit {} exceeded", self.limit)));
        }
        Ok(())
    }

    pub fn mark(&self) -> Mark {
        Mark {
            trail: self.trail.len() as u32,
            slots: self.slots.len() as u32,
            heap: self.heap.len() as u32,
        }
    }

    /// Unbind everything bound since `m` and drop the slots and heap cells
    /// made since.
    pub fn undo(&mut self, m: Mark) {
        while self.trail.len() > m.trail as usize {
            if let Some(s) = self.trail.pop() {
                self.slots[s as usize] = TRef::UNBOUND;
            }
        }
        self.slots.truncate(m.slots as usize);
        self.heap.truncate(m.heap as usize);
    }

    /// Reserve `n` fresh unbound slots; returns the first.
    pub fn alloc(&mut self, n: u32) -> u32 {
        let base = self.slots.len() as u32;
        self.slots
            .resize(self.slots.len() + n as usize, TRef::UNBOUND);
        base
    }

    pub fn bind(&mut self, slot: u32, t: TRef) {
        self.slots[slot as usize] = t;
        self.trail.push(slot);
    }

    /// A heap cell holding `t`: a fresh slot bound to it, so heap terms can
    /// point into clause templates.
    pub fn heap_ref(&mut self, t: TRef) -> Node {
        let s = self.alloc(1);
        self.slots[s as usize] = t;
        Node::Var(s)
    }

    pub fn push(&mut self, n: Node) -> TRef {
        self.heap.push(n);
        TRef::heap(self.heap.len() as u32 - 1)
    }

    #[inline]
    fn node(&self, db: &Database, t: TRef) -> Node {
        if t.area == HEAP {
            self.heap[t.idx as usize]
        } else {
            db.arena(t.area)[t.idx as usize]
        }
    }

    /// What slot `s` is bound to, dereferenced.
    pub fn deref_slot(&self, db: &Database, s: u32) -> View {
        match self.slots[s as usize] {
            TRef::UNBOUND => View::Var(s),
            b => self.deref(db, b).1,
        }
    }

    /// Follow bindings to the end of the chain.
    #[inline]
    pub fn deref(&self, db: &Database, mut t: TRef) -> (TRef, View) {
        loop {
            let v = match self.node(db, t) {
                Node::Var(k) => {
                    let s = if t.area == HEAP { k } else { t.env + k };
                    let b = self.slots[s as usize];
                    if b == TRef::UNBOUND {
                        View::Var(s)
                    } else {
                        t = b;
                        continue;
                    }
                }
                Node::Atom(a) => View::Atom(a),
                Node::Num(x) => View::Num(x),
                Node::Struct { f, n, args } => View::Struct(f, n, TRef { idx: args, ..t }),
                Node::Nil => View::Nil,
                Node::Cons { args } => View::Cons(TRef { idx: args, ..t }),
                Node::Cut => View::Atom(crate::machine::sym::CUT),
                // Collected solutions never reach the resolver as terms.
                Node::Fresh(k) => View::Var(k),
            };
            return (t, v);
        }
    }

    /// Unify two terms. On failure the bindings made so far stay; the
    /// caller undoes to its mark.
    pub fn unify(&mut self, db: &Database, a: TRef, b: TRef) -> Result<bool, MachineError> {
        self.matches(db, a, b, true)
    }

    /// Structural identity (`==`): unbound variables equal only themselves.
    pub fn identical(&mut self, db: &Database, a: TRef, b: TRef) -> Result<bool, MachineError> {
        self.matches(db, a, b, false)
    }

    fn matches(
        &mut self,
        db: &Database,
        a: TRef,
        b: TRef,
        bind: bool,
    ) -> Result<bool, MachineError> {
        self.pairs.clear();
        self.pairs.push((a, b));
        while let Some((x, y)) = self.pairs.pop() {
            self.tick()?;
            let (xt, xv) = self.deref(db, x);
            let (yt, yv) = self.deref(db, y);
            match (xv, yv) {
                (View::Var(s), View::Var(t)) if s == t => {}
                (View::Var(s), _) if bind => self.bind(s, yt),
                (_, View::Var(t)) if bind => self.bind(t, xt),
                (View::Atom(p), View::Atom(q)) if p == q => {}
                (View::Num(p), View::Num(q)) if p == q => {}
                (View::Nil, View::Nil) => {}
                (View::Struct(f, n, xa), View::Struct(g, m, ya)) if f == g && n == m => {
                    for i in (0..n).rev() {
                        self.pairs.push((xa.arg(i), ya.arg(i)));
                    }
                }
                (View::Cons(xa), View::Cons(ya)) => {
                    self.pairs.push((xa.arg(1), ya.arg(1)));
                    self.pairs.push((xa, ya));
                }
                _ => return Ok(false),
            }
        }
        Ok(true)
    }

    /// Standard order of terms, for `setof`: variables < numbers < atoms <
    /// compounds < lists. Numbers compare by value, atoms by name,
    /// compounds by name, arity, then arguments, lists item by item then
    /// by length (tails are not compared), variables by slot (creation
    /// order). `stack` is scratch space.
    pub fn compare(
        &self,
        db: &Database,
        a: TRef,
        b: TRef,
        stack: &mut Vec<(TRef, TRef, bool)>,
    ) -> Ordering {
        fn rank(v: View) -> u8 {
            match v {
                View::Var(_) => 0,
                View::Num(_) => 1,
                View::Atom(_) => 2,
                View::Struct(..) => 3,
                View::Nil | View::Cons(_) => 4,
            }
        }
        stack.clear();
        stack.push((a, b, false));
        while let Some((x, y, in_list)) = stack.pop() {
            let (xt, xv) = self.deref(db, x);
            let (yt, yv) = self.deref(db, y);
            if in_list {
                match (xv, yv) {
                    (View::Cons(xa), View::Cons(ya)) => {
                        stack.push((xa.arg(1), ya.arg(1), true));
                        stack.push((xa, ya, false));
                    }
                    (View::Cons(_), _) => return Ordering::Greater,
                    (_, View::Cons(_)) => return Ordering::Less,
                    _ => {}
                }
                continue;
            }
            let o = match (xv, yv) {
                (View::Num(p), View::Num(q)) => p.partial_cmp(&q).unwrap_or(Ordering::Equal),
                (View::Atom(p), View::Atom(q)) => db.name(p).cmp(db.name(q)),
                (View::Var(s), View::Var(t)) => s.cmp(&t),
                (View::Struct(f, n, xa), View::Struct(g, m, ya)) => {
                    let o = db.name(f).cmp(db.name(g)).then(n.cmp(&m));
                    if o == Ordering::Equal {
                        for i in (0..n).rev() {
                            stack.push((xa.arg(i), ya.arg(i), false));
                        }
                    }
                    o
                }
                (View::Nil | View::Cons(_), View::Nil | View::Cons(_)) => {
                    stack.push((xt, yt, true));
                    Ordering::Equal
                }
                _ => rank(xv).cmp(&rank(yv)),
            };
            if o != Ordering::Equal {
                return o;
            }
        }
        Ordering::Equal
    }

    /// Rebuild a [`Term`]. Unbound variables print as `name_of(slot)`;
    /// below `depth` levels of nesting a subterm prints as `...`, which
    /// keeps error messages about cyclic terms finite.
    pub fn resolve(
        &self,
        db: &Database,
        t: TRef,
        depth: usize,
        name_of: &dyn Fn(u32) -> String,
    ) -> Term {
        if depth == 0 {
            return Term::atom("...");
        }
        match self.deref(db, t).1 {
            View::Var(s) => Term::Var(name_of(s)),
            View::Atom(a) => Term::Atom(db.name(a).to_string()),
            View::Num(x) => Term::Num(x),
            View::Struct(f, n, args) => Term::Compound(
                db.name(f).to_string(),
                (0..n)
                    .map(|i| self.resolve(db, args.arg(i), depth - 1, name_of))
                    .collect(),
            ),
            View::Nil => Term::nil(),
            View::Cons(mut cell) => {
                let mut items = Vec::new();
                loop {
                    if items.len() >= depth {
                        return Term::List(items, Some(Box::new(Term::atom("..."))));
                    }
                    items.push(self.resolve(db, cell, depth - 1, name_of));
                    match self.deref(db, cell.arg(1)).1 {
                        View::Cons(next) => cell = next,
                        View::Nil => return Term::List(items, None),
                        _ => {
                            let tail = self.resolve(db, cell.arg(1), depth - 1, name_of);
                            return Term::List(items, Some(Box::new(tail)));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Term;
    use crate::machine::compile_term;

    /// A store and database for building heap terms whose variables are
    /// shared by name across every term built.
    struct Fixture {
        db: Database,
        st: Store,
        names: Vec<String>,
    }

    impl Fixture {
        fn new() -> Self {
            let mut st = Store::default();
            st.reset(None);
            Fixture {
                db: Database::new(),
                st,
                names: Vec::new(),
            }
        }

        fn term(&mut self, t: &Term) -> TRef {
            let root = self.st.heap.len();
            self.st.heap.push(Node::Nil);
            let n = compile_term(t, &mut self.st.heap, self.db.syms_mut(), &mut self.names);
            self.st.heap[root] = n;
            let missing = self.names.len() - (self.st.slots.len());
            self.st.alloc(missing as u32);
            TRef::heap(root as u32)
        }

        fn unify(&mut self, a: &Term, b: &Term) -> bool {
            let (a, b) = (self.term(a), self.term(b));
            self.st.unify(&self.db, a, b).unwrap()
        }

        fn resolve(&mut self, t: &Term) -> Term {
            let t = self.term(t);
            let names = self.names.clone();
            self.st
                .resolve(&self.db, t, usize::MAX, &|s| names[s as usize].clone())
        }

        fn cmp(&mut self, a: &Term, b: &Term) -> Ordering {
            let (a, b) = (self.term(a), self.term(b));
            self.st.compare(&self.db, a, b, &mut Vec::new())
        }
    }

    #[test]
    fn bind_and_walk() {
        let mut f = Fixture::new();
        assert!(f.unify(&Term::var("X"), &Term::num(3.0)));
        assert_eq!(f.resolve(&Term::var("X")), Term::num(3.0));
    }

    #[test]
    fn chains_resolve() {
        let mut f = Fixture::new();
        assert!(f.unify(&Term::var("X"), &Term::var("Y")));
        assert!(f.unify(&Term::var("Y"), &Term::atom("a")));
        assert_eq!(f.resolve(&Term::var("X")), Term::atom("a"));
    }

    #[test]
    fn undo_restores_state() {
        let mut f = Fixture::new();
        let x = f.term(&Term::var("X"));
        let m = f.st.mark();
        assert!(f.unify(&Term::var("X"), &Term::num(1.0)));
        f.st.undo(m);
        assert!(matches!(f.st.deref(&f.db, x).1, View::Var(_)));
        // Can rebind after undo.
        assert!(f.unify(&Term::var("X"), &Term::num(2.0)));
        assert_eq!(f.resolve(&Term::var("X")), Term::num(2.0));
    }

    #[test]
    fn compound_unification() {
        let mut f = Fixture::new();
        let t1 = Term::compound("f", vec![Term::var("X"), Term::num(2.0)]);
        let t2 = Term::compound("f", vec![Term::num(1.0), Term::var("Y")]);
        assert!(f.unify(&t1, &t2));
        assert_eq!(f.resolve(&Term::var("X")), Term::num(1.0));
        assert_eq!(f.resolve(&Term::var("Y")), Term::num(2.0));
    }

    #[test]
    fn mismatched_functors_fail() {
        let mut f = Fixture::new();
        assert!(!f.unify(
            &Term::compound("f", vec![Term::num(1.0)]),
            &Term::compound("g", vec![Term::num(1.0)])
        ));
        assert!(!f.unify(
            &Term::compound("f", vec![]),
            &Term::compound("f", vec![Term::num(1.0)])
        ));
    }

    #[test]
    fn partial_list_unification() {
        let mut f = Fixture::new();
        let pat = Term::List(vec![Term::var("H")], Some(Box::new(Term::var("T"))));
        let lst = Term::list(vec![Term::num(1.0), Term::num(2.0), Term::num(3.0)]);
        assert!(f.unify(&pat, &lst));
        assert_eq!(f.resolve(&Term::var("H")), Term::num(1.0));
        assert_eq!(
            f.resolve(&Term::var("T")),
            Term::list(vec![Term::num(2.0), Term::num(3.0)])
        );
    }

    #[test]
    fn empty_list_only_unifies_empty() {
        let mut f = Fixture::new();
        assert!(f.unify(&Term::nil(), &Term::nil()));
        assert!(!f.unify(&Term::nil(), &Term::list(vec![Term::num(1.0)])));
    }

    #[test]
    fn resolve_flattens_list_tails() {
        let mut f = Fixture::new();
        assert!(f.unify(&Term::var("T"), &Term::list(vec![Term::num(2.0)])));
        let t = Term::List(vec![Term::num(1.0)], Some(Box::new(Term::var("T"))));
        assert_eq!(
            f.resolve(&t),
            Term::list(vec![Term::num(1.0), Term::num(2.0)])
        );
    }

    #[test]
    fn term_ordering() {
        use std::cmp::Ordering::*;
        let mut f = Fixture::new();
        assert_eq!(f.cmp(&Term::num(1.0), &Term::num(2.0)), Less);
        assert_eq!(f.cmp(&Term::num(9.0), &Term::atom("a")), Less);
        assert_eq!(f.cmp(&Term::atom("a"), &Term::atom("b")), Less);
        assert_eq!(
            f.cmp(
                &Term::list(vec![Term::num(1.0)]),
                &Term::list(vec![Term::num(1.0), Term::num(0.0)])
            ),
            Less
        );
        assert_eq!(
            f.cmp(&Term::compound("f", vec![Term::num(1.0)]), &Term::nil()),
            Less
        );
    }

    #[test]
    fn same_var_unifies_without_binding() {
        let mut f = Fixture::new();
        let x = f.term(&Term::var("X"));
        let m = f.st.mark();
        assert!(f.st.unify(&f.db, x, x).unwrap());
        assert_eq!(f.st.mark(), m, "no binding should be recorded");
    }
}
