//! The workflow DAG container.
//!
//! Stores tasks plus data-dependency edges (each edge carries the bytes
//! transferred from parent to child) and provides the graph analyses the
//! optimizer relies on: topological order, level decomposition (the unit of
//! "deadline assignment" in the Autoscaling baseline), and weighted critical
//! paths (Equation (3): the workflow makespan is the sum over the critical
//! path).

use crate::task::{Task, TaskId, TaskProfile};
use serde::{Deserialize, Serialize};

/// Why path lengths compare: every task weight is checked non-negative, so
/// no distance is NaN.
const FINITE: &str = "critical-path distances are never NaN";

/// Errors from building or validating a workflow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkflowError {
    /// An edge endpoint refers to a task that does not exist.
    UnknownTask(String),
    /// Adding the edge would create a cycle.
    Cycle(TaskId, TaskId),
    /// Duplicate edge between the same pair.
    DuplicateEdge(TaskId, TaskId),
}

impl std::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkflowError::UnknownTask(name) => write!(f, "unknown task: {name}"),
            WorkflowError::Cycle(a, b) => write!(f, "edge {a} -> {b} would create a cycle"),
            WorkflowError::DuplicateEdge(a, b) => write!(f, "duplicate edge {a} -> {b}"),
        }
    }
}

impl std::error::Error for WorkflowError {}

/// A data-dependency edge: `from`'s output feeds `to`, moving `bytes`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    pub from: TaskId,
    pub to: TaskId,
    pub bytes: f64,
}

/// A scientific workflow: a DAG of [`Task`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workflow {
    pub name: String,
    tasks: Vec<Task>,
    edges: Vec<Edge>,
    /// children[i] = outgoing edge indices of task i.
    children: Vec<Vec<usize>>,
    /// parents[i] = incoming edge indices of task i.
    parents: Vec<Vec<usize>>,
}

impl Workflow {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
            children: Vec::new(),
            parents: Vec::new(),
        }
    }

    /// Add a task and return its id.
    pub fn add_task(
        &mut self,
        name: impl Into<String>,
        executable: impl Into<String>,
        profile: TaskProfile,
    ) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id, name, executable, profile));
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        id
    }

    /// Add a data dependency `from -> to` carrying `bytes`.
    pub fn add_edge(&mut self, from: TaskId, to: TaskId, bytes: f64) -> Result<(), WorkflowError> {
        if from.index() >= self.tasks.len() {
            return Err(WorkflowError::UnknownTask(from.to_string()));
        }
        if to.index() >= self.tasks.len() {
            return Err(WorkflowError::UnknownTask(to.to_string()));
        }
        if self.children[from.index()]
            .iter()
            .any(|&e| self.edges[e].to == to)
        {
            return Err(WorkflowError::DuplicateEdge(from, to));
        }
        if from == to || self.reaches(to, from) {
            return Err(WorkflowError::Cycle(from, to));
        }
        let idx = self.edges.len();
        self.edges.push(Edge { from, to, bytes });
        self.children[from.index()].push(idx);
        self.parents[to.index()].push(idx);
        Ok(())
    }

    /// Whether `from` reaches `to` through directed edges (DFS).
    fn reaches(&self, from: TaskId, to: TaskId) -> bool {
        let mut stack = vec![from];
        let mut seen = vec![false; self.tasks.len()];
        while let Some(t) = stack.pop() {
            if t == to {
                return true;
            }
            if std::mem::replace(&mut seen[t.index()], true) {
                continue;
            }
            for &e in &self.children[t.index()] {
                stack.push(self.edges[e].to);
            }
        }
        false
    }

    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    pub fn tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }

    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> {
        (0..self.tasks.len() as u32).map(TaskId)
    }

    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    pub fn children(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.children[id.index()].iter().map(|&e| self.edges[e].to)
    }

    pub fn parents(&self, id: TaskId) -> impl Iterator<Item = TaskId> + '_ {
        self.parents[id.index()].iter().map(|&e| self.edges[e].from)
    }

    /// Bytes flowing along edge `from -> to`, if the edge exists.
    pub fn edge_bytes(&self, from: TaskId, to: TaskId) -> Option<f64> {
        self.children[from.index()]
            .iter()
            .map(|&e| &self.edges[e])
            .find(|e| e.to == to)
            .map(|e| e.bytes)
    }

    /// Total bytes the task receives from its parents (the migration unit's
    /// transferred data in the follow-the-cost problem).
    pub fn input_bytes(&self, id: TaskId) -> f64 {
        self.parents[id.index()]
            .iter()
            .map(|&e| self.edges[e].bytes)
            .sum()
    }

    /// Entry tasks (no parents).
    pub fn roots(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.parents[t.index()].is_empty())
            .collect()
    }

    /// Exit tasks (no children).
    pub fn sinks(&self) -> Vec<TaskId> {
        self.task_ids()
            .filter(|t| self.children[t.index()].is_empty())
            .collect()
    }

    /// Topological order (Kahn). The graph is acyclic by construction, so
    /// this always succeeds.
    pub fn topo_order(&self) -> Vec<TaskId> {
        let mut indeg: Vec<usize> = self.parents.iter().map(|p| p.len()).collect();
        let mut queue: Vec<TaskId> = self.task_ids().filter(|t| indeg[t.index()] == 0).collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        let mut head = 0;
        while head < queue.len() {
            let t = queue[head];
            head += 1;
            order.push(t);
            for &e in &self.children[t.index()] {
                let c = self.edges[e].to;
                indeg[c.index()] -= 1;
                if indeg[c.index()] == 0 {
                    queue.push(c);
                }
            }
        }
        debug_assert_eq!(order.len(), self.tasks.len());
        order
    }

    /// Level (longest hop-distance from any root) of every task. Tasks in
    /// the same level are structurally parallel; the Autoscaling baseline
    /// assigns per-level sub-deadlines.
    pub fn levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.tasks.len()];
        for t in self.topo_order() {
            for c in self.children(t) {
                level[c.index()] = level[c.index()].max(level[t.index()] + 1);
            }
        }
        level
    }

    /// Tasks grouped by level, in level order.
    pub fn level_groups(&self) -> Vec<Vec<TaskId>> {
        let levels = self.levels();
        let depth = levels.iter().copied().max().map_or(0, |d| d + 1);
        let mut groups = vec![Vec::new(); depth];
        for t in self.task_ids() {
            groups[levels[t.index()]].push(t);
        }
        groups
    }

    /// Weighted longest path from any root to any sink, where each task
    /// contributes `weight(task)` (edge delays can be folded into the child's
    /// weight by the caller). Returns the path (root..sink) and its length.
    ///
    /// This is the critical path CP of Equation (3): the makespan of the
    /// workflow is the total weight along it.
    pub fn critical_path(&self, weight: impl Fn(TaskId) -> f64) -> (Vec<TaskId>, f64) {
        assert!(!self.tasks.is_empty(), "critical path of empty workflow");
        let order = self.topo_order();
        let mut dist = vec![f64::NEG_INFINITY; self.tasks.len()];
        let mut pred: Vec<Option<TaskId>> = vec![None; self.tasks.len()];
        for &t in &order {
            let w = weight(t);
            assert!(w >= 0.0, "negative task weight on {t}");
            if self.parents[t.index()].is_empty() {
                dist[t.index()] = w;
            } else {
                // parents processed earlier in topo order
                let (best_p, best_d) = self
                    .parents(t)
                    .map(|p| (p, dist[p.index()]))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect(FINITE))
                    .expect("a task with parents has a best parent");
                dist[t.index()] = best_d + w;
                pred[t.index()] = Some(best_p);
            }
        }
        let (end, &len) = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect(FINITE))
            .expect("a non-empty workflow has a longest path");
        let mut path = vec![TaskId(end as u32)];
        while let Some(p) = pred[path.last().expect("the path holds its end task").index()] {
            path.push(p);
        }
        path.reverse();
        (path, len)
    }

    /// Sum of `weight(t)` over every task (Equation (1)'s total-cost shape).
    pub fn total_weight(&self, weight: impl Fn(TaskId) -> f64) -> f64 {
        self.task_ids().map(weight).sum()
    }

    /// Scale every task profile and edge payload by `factor`. The
    /// scientific-application generators use this to bring their published
    /// per-task profile *shapes* up to the data scales the paper describes
    /// (Montage and Ligo process hundreds of GB; Epigenomics dozens).
    pub fn scale_profiles(&mut self, factor: f64) {
        self.scale_cpu_and_bytes(factor, factor);
    }

    /// Scale CPU work and data volumes independently: I/O-bound
    /// applications (Montage) need their data grown far more than their
    /// CPU time to reproduce the paper's I/O-driven runtime variance.
    pub fn scale_cpu_and_bytes(&mut self, cpu_factor: f64, bytes_factor: f64) {
        assert!(cpu_factor > 0.0 && bytes_factor > 0.0);
        for t in &mut self.tasks {
            t.profile = crate::task::TaskProfile::new(
                t.profile.cpu_seconds * cpu_factor,
                t.profile.read_bytes * bytes_factor,
                t.profile.write_bytes * bytes_factor,
            );
        }
        for e in &mut self.edges {
            e.bytes *= bytes_factor;
        }
    }

    /// Longest path length in *task count* (depth of the DAG).
    pub fn depth(&self) -> usize {
        self.levels().iter().copied().max().map_or(0, |d| d + 1)
    }

    /// Maximum number of structurally parallel tasks (width).
    pub fn width(&self) -> usize {
        self.level_groups()
            .iter()
            .map(|g| g.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskProfile;

    fn p() -> TaskProfile {
        TaskProfile::new(1.0, 0.0, 0.0)
    }

    /// Diamond: a -> {b, c} -> d.
    fn diamond() -> (Workflow, [TaskId; 4]) {
        let mut w = Workflow::new("diamond");
        let a = w.add_task("a", "x", p());
        let b = w.add_task("b", "x", p());
        let c = w.add_task("c", "x", p());
        let d = w.add_task("d", "x", p());
        w.add_edge(a, b, 10.0).unwrap();
        w.add_edge(a, c, 20.0).unwrap();
        w.add_edge(b, d, 5.0).unwrap();
        w.add_edge(c, d, 5.0).unwrap();
        (w, [a, b, c, d])
    }

    #[test]
    fn roots_and_sinks() {
        let (w, [a, _, _, d]) = diamond();
        assert_eq!(w.roots(), vec![a]);
        assert_eq!(w.sinks(), vec![d]);
    }

    #[test]
    fn cycle_rejected() {
        let (mut w, [a, _, _, d]) = diamond();
        assert_eq!(w.add_edge(d, a, 1.0), Err(WorkflowError::Cycle(d, a)));
        assert_eq!(w.add_edge(a, a, 1.0), Err(WorkflowError::Cycle(a, a)));
    }

    #[test]
    fn duplicate_edge_rejected() {
        let (mut w, [a, b, _, _]) = diamond();
        assert_eq!(
            w.add_edge(a, b, 1.0),
            Err(WorkflowError::DuplicateEdge(a, b))
        );
    }

    #[test]
    fn unknown_task_rejected() {
        let (mut w, [a, ..]) = diamond();
        assert!(matches!(
            w.add_edge(a, TaskId(99), 1.0),
            Err(WorkflowError::UnknownTask(_))
        ));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (w, _) = diamond();
        let order = w.topo_order();
        let pos: Vec<usize> = (0..4)
            .map(|i| order.iter().position(|t| t.index() == i).unwrap())
            .collect();
        for e in w.edges() {
            assert!(pos[e.from.index()] < pos[e.to.index()]);
        }
    }

    #[test]
    fn levels_of_diamond() {
        let (w, [a, b, c, d]) = diamond();
        let l = w.levels();
        assert_eq!(l[a.index()], 0);
        assert_eq!(l[b.index()], 1);
        assert_eq!(l[c.index()], 1);
        assert_eq!(l[d.index()], 2);
        assert_eq!(w.depth(), 3);
        assert_eq!(w.width(), 2);
    }

    #[test]
    fn critical_path_picks_heavier_branch() {
        let (w, [a, _, c, d]) = diamond();
        // Weight c heavier than b.
        let (path, len) = w.critical_path(|t| if t == c { 10.0 } else { 1.0 });
        assert_eq!(path, vec![a, c, d]);
        assert!((len - 12.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_single_task() {
        let mut w = Workflow::new("one");
        let a = w.add_task("a", "x", p());
        let (path, len) = w.critical_path(|_| 7.0);
        assert_eq!(path, vec![a]);
        assert_eq!(len, 7.0);
    }

    #[test]
    fn critical_path_dominates_every_root_sink_chain() {
        // Build a random-ish DAG deterministically and verify the invariant.
        let mut w = Workflow::new("chainy");
        let ts: Vec<TaskId> = (0..10)
            .map(|i| w.add_task(format!("t{i}"), "x", p()))
            .collect();
        for i in 0..10usize {
            for j in (i + 1)..10 {
                if (i * 7 + j * 3) % 4 == 0 {
                    let _ = w.add_edge(ts[i], ts[j], 1.0);
                }
            }
        }
        let weight = |t: TaskId| 1.0 + (t.index() % 3) as f64;
        let (_, cp) = w.critical_path(weight);
        // Enumerate all paths by DFS and check none exceeds cp.
        fn dfs(w: &Workflow, t: TaskId, acc: f64, weight: &dyn Fn(TaskId) -> f64, cp: f64) {
            let acc = acc + weight(t);
            assert!(
                acc <= cp + 1e-9,
                "path through {t} has length {acc} > cp {cp}"
            );
            for c in w.children(t) {
                dfs(w, c, acc, weight, cp);
            }
        }
        for r in w.roots() {
            dfs(&w, r, 0.0, &weight, cp);
        }
    }

    #[test]
    fn edge_bytes_and_input_bytes() {
        let (w, [a, b, c, d]) = diamond();
        assert_eq!(w.edge_bytes(a, b), Some(10.0));
        assert_eq!(w.edge_bytes(b, a), None);
        assert_eq!(w.input_bytes(d), 10.0);
        assert_eq!(w.input_bytes(a), 0.0);
        let _ = c;
    }

    #[test]
    fn total_weight_sums_all_tasks() {
        let (w, _) = diamond();
        assert_eq!(w.total_weight(|_| 2.0), 8.0);
    }

    #[test]
    fn level_groups_partition_tasks() {
        let (w, _) = diamond();
        let groups = w.level_groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, w.len());
        assert_eq!(groups.len(), w.depth());
    }
}
