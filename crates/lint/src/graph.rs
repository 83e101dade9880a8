//! The workspace call graph.
//!
//! Built from the per-file [`crate::symbols`] facts, this is the
//! substrate for the workspace rule D7, which walks call edges from
//! the event-loop entry points to every reachable panic site.
//!
//! Resolution is deliberately *name-based and over-approximate*: a
//! call `dispatch(` edges to **every** workspace fn named `dispatch`,
//! whatever its `impl` block. For a panic-reachability rule an
//! over-approximation is the safe direction — it can only flag too
//! much (and anything spurious gets an annotated `lint:allow(d7)`),
//! never miss a genuinely reachable site. Determinism: all maps are
//! `BTreeMap`, all worklists are sorted, so findings and stats are
//! byte-stable across runs and platforms.

use std::collections::BTreeMap;

use crate::symbols::{FileSymbols, FnSym, StructSym};

/// Headline numbers for `--json` and the CI artifact.
#[derive(Clone, Copy, Debug, Default)]
pub struct GraphStats {
    /// `fn` items in the workspace (test items excluded).
    pub fns: usize,
    /// `struct`/`enum` items.
    pub structs: usize,
    /// Resolved call edges (caller → callee pairs).
    pub call_edges: usize,
    /// Panic sites in all fn bodies.
    pub panic_sites: usize,
    /// Panic sites reachable from the D7 entry points.
    pub reachable_panic_sites: usize,
}

/// The assembled workspace graph. Indices into `fns`/`structs` are the
/// node ids; the name maps are one-to-many because resolution is
/// name-based.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    pub fns: Vec<FnSym>,
    pub structs: Vec<StructSym>,
    /// fn name → node ids (every fn with that name).
    fn_by_name: BTreeMap<String, Vec<usize>>,
    /// caller node id → callee node ids, deduplicated and sorted.
    edges: Vec<Vec<usize>>,
}

impl Graph {
    /// Assembles the graph from per-file symbol sets. The input order
    /// must already be deterministic (the scanner sorts its walk).
    pub fn build(files: &[FileSymbols]) -> Graph {
        let mut g = Graph::default();
        for fs in files {
            for f in &fs.fns {
                g.fn_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(g.fns.len());
                g.fns.push(f.clone());
            }
            g.structs.extend(fs.structs.iter().cloned());
        }
        g.edges = g
            .fns
            .iter()
            .map(|f| {
                let mut callees: Vec<usize> = f
                    .calls
                    .iter()
                    .filter_map(|name| g.fn_by_name.get(name))
                    .flatten()
                    .copied()
                    .collect();
                callees.sort_unstable();
                callees.dedup();
                callees
            })
            .collect();
        g
    }

    /// Node ids of every fn with this name.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.fn_by_name.get(name).map_or(&[], Vec::as_slice)
    }

    /// BFS from the named entry fns over call edges. Returns, for each
    /// reached node, its predecessor on a shortest path (entries map to
    /// themselves) — enough to reconstruct a call path for a finding.
    pub fn reachable(&self, entries: &[&str]) -> BTreeMap<usize, usize> {
        let mut parent: BTreeMap<usize, usize> = BTreeMap::new();
        let mut frontier: Vec<usize> = Vec::new();
        for e in entries {
            for &id in self.fns_named(e) {
                if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(id) {
                    v.insert(id);
                    frontier.push(id);
                }
            }
        }
        frontier.sort_unstable();
        while !frontier.is_empty() {
            let mut next: Vec<usize> = Vec::new();
            for &id in &frontier {
                for &callee in self.edges.get(id).map_or(&[][..], Vec::as_slice) {
                    if let std::collections::btree_map::Entry::Vacant(v) = parent.entry(callee) {
                        v.insert(id);
                        next.push(callee);
                    }
                }
            }
            next.sort_unstable();
            next.dedup();
            frontier = next;
        }
        parent
    }

    /// Renders the shortest call path to `id` as
    /// `entry -> … -> target`, given the parent map from
    /// [`Graph::reachable`].
    pub fn path_to(&self, parent: &BTreeMap<usize, usize>, id: usize) -> String {
        let mut names: Vec<&str> = Vec::new();
        let mut cur = id;
        // Bounded by the node count: parent chains can't cycle (BFS
        // tree), but stay defensive.
        for _ in 0..=self.fns.len() {
            let Some(f) = self.fns.get(cur) else { break };
            names.push(&f.name);
            let Some(&p) = parent.get(&cur) else { break };
            if p == cur {
                break;
            }
            cur = p;
        }
        names.reverse();
        names.join(" -> ")
    }

    /// Graph-wide statistics. `reachable_panic_sites` counts sites in
    /// fns reached from `entries`.
    pub fn stats(&self, entries: &[&str]) -> GraphStats {
        let parent = self.reachable(entries);
        GraphStats {
            fns: self.fns.len(),
            structs: self.structs.len(),
            call_edges: self.edges.iter().map(Vec::len).sum(),
            panic_sites: self.fns.iter().map(|f| f.panic_sites.len()).sum(),
            reachable_panic_sites: parent
                .keys()
                .filter_map(|&id| self.fns.get(id))
                .map(|f| f.panic_sites.len())
                .sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::scan_file;

    fn graph_of(srcs: &[(&str, &[u8])]) -> Graph {
        let files: Vec<_> = srcs.iter().map(|(f, s)| scan_file(f, s)).collect();
        Graph::build(&files)
    }

    #[test]
    fn reachability_follows_call_edges() {
        let g = graph_of(&[(
            "a.rs",
            br#"
            fn entry() { middle(); }
            fn middle() { leaf(); }
            fn leaf() { x.unwrap(); }
            fn island() { panic!("unreached") }
            "#,
        )]);
        let parent = g.reachable(&["entry"]);
        let reached: Vec<&str> = parent.keys().map(|&i| g.fns[i].name.as_str()).collect();
        assert_eq!(reached, ["entry", "middle", "leaf"]);
        let leaf = g.fns_named("leaf")[0];
        assert_eq!(g.path_to(&parent, leaf), "entry -> middle -> leaf");
        assert_eq!(g.stats(&["entry"]).reachable_panic_sites, 1);
        assert_eq!(g.stats(&["entry"]).panic_sites, 2);
    }

    #[test]
    fn method_calls_resolve_by_name_over_approximately() {
        let g = graph_of(&[(
            "a.rs",
            br#"
            fn entry(c: Controller) { c.dispatch(); }
            impl Controller { fn dispatch(&self) { todo!() } }
            impl Other { fn dispatch(&self) {} }
            "#,
        )]);
        let parent = g.reachable(&["entry"]);
        // Both same-named methods are reached: over-approximation.
        assert_eq!(parent.len(), 3);
    }

    #[test]
    fn cycles_terminate() {
        let g = graph_of(&[(
            "a.rs",
            br#"
            fn f() { g(); }
            fn g() { f(); }
            "#,
        )]);
        assert_eq!(g.reachable(&["f"]).len(), 2);
    }
}
