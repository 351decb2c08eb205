//! The interprocedural "deep" phase: function summaries and the taint
//! worklist.
//!
//! Phase order inside one analyzer run:
//!
//! 1. **Dependency hashes.** Each file's deep results are valid for a
//!    hash folding its own content with the content of every file it
//!    (transitively) calls into, so editing a leaf invalidates the deep
//!    cache of all its callers without touching their per-file facts.
//! 2. **Summary fixpoint.** Files whose dependency hash changed are
//!    re-parsed and every function gets a [`FnSummary`] — the joined
//!    return interval from the range analysis and the parameter→return
//!    taint mask — computed callee-first over the call graph, iterating
//!    a bounded number of passes so cycles settle. L010's arithmetic
//!    risks are recomputed in the same walk with callee summaries in
//!    scope (a call to a function proven to return `[0, 7]` no longer
//!    widens to top).
//! 3. **Taint worklist.** Functions named under `[[untrusted]]` in
//!    `lint.toml` seed a forward worklist: their parameters are
//!    attacker-controlled. Taint flows into callees through arguments,
//!    and back to callers of any function whose return value is
//!    (transitively) derived from untrusted input. A final walk over
//!    every reached function records the L015 sink hits with their
//!    source chains. Taint results are *not* cached: they depend on a
//!    function's callers, which the callee-directed dependency hash
//!    deliberately does not cover.

use std::collections::{HashMap, HashSet, VecDeque};

use crate::ast::{PFn, ParsedFile};
use crate::cache::Cache;
use crate::config::LintConfig;
use crate::dataflow::{arith_risks_with, Interval};
use crate::facts::Event;
use crate::graph::{FnId, Graph};
use crate::taint::{self, param_bit, CallModel, ROOT_BIT};
use crate::{fnv1a64, Workspace};

/// Per-function interprocedural summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Joined interval of all bounded return paths; `None` when the
    /// function does not return a bare integer or nothing was provable.
    pub ret: Option<Interval>,
    /// Bit *i* set when parameter *i* may flow into the return value.
    pub ret_taint: u64,
}

/// Deep (interprocedural) results for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnDeep {
    pub summary: FnSummary,
    /// L010 arithmetic risks computed with callee summaries in scope.
    pub ariths: Vec<(String, u32)>,
}

/// Deep results for one file, cache-persisted next to its facts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeepFacts {
    /// FNV over the sorted `(path, content hash)` set of this file and
    /// every file reachable from it through resolved call edges.
    pub dep_hash: u64,
    /// Index-aligned with `FileFacts::fns`.
    pub fns: Vec<FnDeep>,
}

/// One L015 finding before rule packaging: `(file, line, message)`.
pub type TaintFinding = (String, u32, String);

/// Resolved call sites of one function: `(callee name, line)` → targets.
type SiteMap = HashMap<(String, u32), Vec<FnId>>;

/// Run the deep phase over a loaded workspace: recompute stale
/// summaries, merge the interprocedural L010 events into the in-memory
/// facts, run the taint worklist into `ws.taints`, and persist fresh
/// deep results into `cache`.
pub fn deep_phase(ws: &mut Workspace, cfg: &LintConfig, cache: Option<&mut Cache>) {
    let n = ws.files.len();
    let hashes: Vec<u64> = ws.srcs.iter().map(|s| fnv1a64(s.as_bytes())).collect();

    let mut fresh: HashMap<usize, DeepFacts> = HashMap::new();
    let mut taints: Vec<TaintFinding> = Vec::new();
    {
        let g = Graph::new(&ws.files, ws.extern_lines());

        // Resolve every call site once: per fn, `(name, line)` → targets.
        let mut sites: Vec<Vec<SiteMap>> = Vec::with_capacity(n);
        let mut file_callees: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for (fi, (_, facts)) in ws.files.iter().enumerate() {
            let mut per_file = Vec::new();
            for (j, f) in facts.fns.iter().enumerate() {
                let mut m: SiteMap = HashMap::new();
                for c in &f.calls {
                    let targets = g.resolve_call(c, (fi, j));
                    for t in &targets {
                        if t.0 != fi && !f.in_test {
                            file_callees[fi].insert(t.0);
                        }
                    }
                    m.entry((c.name().to_string(), c.line()))
                        .or_default()
                        .extend(targets);
                }
                for v in m.values_mut() {
                    v.sort_unstable();
                    v.dedup();
                }
                per_file.push(m);
            }
            sites.push(per_file);
        }

        // Dependency hash: own content + transitive callee files.
        let mut dep_hashes = vec![0u64; n];
        for (fi, dep_hash) in dep_hashes.iter_mut().enumerate() {
            let mut seen: HashSet<usize> = HashSet::new();
            seen.insert(fi);
            let mut stack = vec![fi];
            while let Some(f) = stack.pop() {
                for &c in &file_callees[f] {
                    if seen.insert(c) {
                        stack.push(c);
                    }
                }
            }
            let mut reach: Vec<usize> = seen.into_iter().collect();
            reach.sort_unstable();
            let mut acc = String::new();
            for r in reach {
                acc.push_str(&ws.files[r].0);
                acc.push(' ');
                acc.push_str(&hashes[r].to_string());
                acc.push('\n');
            }
            *dep_hash = fnv1a64(acc.as_bytes());
        }

        let dirty: Vec<bool> = (0..n)
            .map(|fi| match &ws.deeps[fi] {
                Some(d) => d.dep_hash != dep_hashes[fi] || d.fns.len() != ws.files[fi].1.fns.len(),
                None => true,
            })
            .collect();

        // Untrusted roots and declared sanitizers from config.
        let mut roots: HashSet<FnId> = HashSet::new();
        let mut sanitizers: HashSet<FnId> = HashSet::new();
        for u in &cfg.untrusted {
            for r in &u.roots {
                roots.extend(g.find_root(&u.file, r));
            }
            for s in &u.sanitizers {
                sanitizers.extend(g.find_root(&u.file, s));
            }
        }

        // Files needing parsed bodies: deep-dirty ones, plus the
        // undirected call-graph closure around the untrusted roots (the
        // taint worklist flows both down into callees and up to callers
        // of untrusted-returning functions).
        let mut need_parse: Vec<bool> = dirty.clone();
        if !roots.is_empty() {
            let mut undirected: Vec<HashSet<usize>> = file_callees.clone();
            for (fi, callees) in file_callees.iter().enumerate() {
                for &c in callees {
                    undirected[c].insert(fi);
                }
            }
            let mut stack: Vec<usize> = roots.iter().map(|r| r.0).collect();
            let mut seen: HashSet<usize> = stack.iter().copied().collect();
            while let Some(f) = stack.pop() {
                need_parse[f] = true;
                for &x in &undirected[f] {
                    if seen.insert(x) {
                        stack.push(x);
                    }
                }
            }
        }
        let parsed: Vec<Option<ParsedFile>> = (0..n)
            .map(|fi| {
                if !need_parse[fi] {
                    return None;
                }
                let p = crate::parser::parse_file(&crate::lexer::lex(&ws.srcs[fi]));
                // Facts and bodies must be index-aligned; a mismatch
                // (which would mean the cache and the source disagree)
                // conservatively disables deep analysis for the file.
                (p.fns.len() == ws.files[fi].1.fns.len()).then_some(p)
            })
            .collect();
        let pfn = |id: FnId| -> Option<&PFn> { parsed[id.0].as_ref().map(|p| &p.fns[id.1]) };

        // Seed summaries from still-valid cached deep results.
        let mut summaries: HashMap<FnId, FnSummary> = HashMap::new();
        for (fi, is_dirty) in dirty.iter().enumerate() {
            if *is_dirty {
                continue;
            }
            if let Some(d) = &ws.deeps[fi] {
                for (j, df) in d.fns.iter().enumerate() {
                    summaries.insert((fi, j), df.summary);
                }
            }
        }

        // Callee-first order over the dirty functions.
        let mut kids: HashMap<FnId, Vec<FnId>> = HashMap::new();
        let mut dirty_fns: Vec<FnId> = Vec::new();
        for fi in 0..n {
            if !dirty[fi] {
                continue;
            }
            for (j, site) in sites[fi].iter().enumerate() {
                let id = (fi, j);
                dirty_fns.push(id);
                let mut ks: Vec<FnId> = site
                    .values()
                    .flatten()
                    .copied()
                    .filter(|t| dirty[t.0])
                    .collect();
                ks.sort_unstable();
                ks.dedup();
                kids.insert(id, ks);
            }
        }
        let order = post_order(&dirty_fns, &kids);

        let mut deep_fns: HashMap<FnId, FnDeep> = HashMap::new();
        for _pass in 0..3 {
            let mut changed = false;
            for &id in &order {
                let Some(f) = pfn(id) else { continue };
                let site_map = &sites[id.0][id.1];
                let ff = {
                    let oracle = |name: &str, line: u32| -> Option<Interval> {
                        let ts = site_map.get(&(name.to_string(), line))?;
                        if ts.is_empty() {
                            return None;
                        }
                        let mut acc: Option<Interval> = None;
                        for t in ts {
                            let r = summaries.get(t)?.ret?;
                            acc = Some(match acc {
                                Some(a) => a.join(r),
                                None => r,
                            });
                        }
                        acc
                    };
                    arith_risks_with(f, &oracle)
                };
                let rt = {
                    let mut model = SummaryModel {
                        sites: site_map,
                        summaries: &summaries,
                    };
                    taint::ret_taint_of(f, &mut model)
                };
                let new = FnDeep {
                    summary: FnSummary {
                        ret: ff.ret,
                        ret_taint: rt,
                    },
                    ariths: ff.risks,
                };
                if deep_fns.get(&id).map(|p| p.summary) != Some(new.summary) {
                    changed = true;
                }
                summaries.insert(id, new.summary);
                deep_fns.insert(id, new);
            }
            if !changed {
                break;
            }
        }
        for fi in 0..n {
            if !dirty[fi] || parsed[fi].is_none() {
                continue;
            }
            let fns = (0..ws.files[fi].1.fns.len())
                .map(|j| deep_fns.remove(&(fi, j)).unwrap_or_default())
                .collect();
            fresh.insert(
                fi,
                DeepFacts {
                    dep_hash: dep_hashes[fi],
                    fns,
                },
            );
        }

        // ---- Taint worklist ----
        if !roots.is_empty() {
            // Reverse call edges (test callers excluded: a test feeding
            // literal input to a parser is not an attack surface).
            let mut callers: HashMap<FnId, HashSet<FnId>> = HashMap::new();
            for (fi, (_, facts)) in ws.files.iter().enumerate() {
                for (j, f) in facts.fns.iter().enumerate() {
                    if f.in_test {
                        continue;
                    }
                    for ts in sites[fi][j].values() {
                        for &t in ts {
                            callers.entry(t).or_default().insert((fi, j));
                        }
                    }
                }
            }
            let mut st = DetectState {
                tainted: HashMap::new(),
                origin: HashMap::new(),
                ret_untrusted: HashSet::new(),
                pending: Vec::new(),
            };
            let mut queue: VecDeque<FnId> = VecDeque::new();
            let mut queued: HashSet<FnId> = HashSet::new();
            let mut walked: HashSet<FnId> = HashSet::new();
            for &r in &roots {
                let nparams = ws.files[r.0].1.fns[r.1].params.len();
                let mask = (0..nparams).fold(0u64, |a, i| a | param_bit(i));
                st.tainted.insert(r, mask);
                if queued.insert(r) {
                    queue.push_back(r);
                }
            }
            let mut steps = 0usize;
            while let Some(id) = queue.pop_front() {
                queued.remove(&id);
                steps += 1;
                if steps > 50_000 {
                    break;
                }
                if ws.files[id.0].1.fns[id.1].in_test {
                    continue;
                }
                let Some(f) = pfn(id) else { continue };
                walked.insert(id);
                let tmask = st.tainted.get(&id).copied().unwrap_or(0);
                let live = tmask | ROOT_BIT;
                let masks: Vec<u64> = (0..f.params.len()).map(|i| param_bit(i) & tmask).collect();
                let out = {
                    let mut model = DetectModel {
                        sites: &sites[id.0][id.1],
                        summaries: &summaries,
                        st: &mut st,
                        sanitizers: &sanitizers,
                        live,
                        caller: id,
                    };
                    taint::run(f, &masks, live, &mut model)
                };
                // A function *returns untrusted input* only when its
                // return value acquires taint internally — it is a
                // declared root, or it calls one (ROOT_BIT). A return
                // merely derived from the function's own parameters is
                // context-dependent and already applied per call site
                // through the summary's `ret_taint` mask; flagging it
                // globally would poison call sites with clean arguments.
                let ret_untrusted =
                    out.ret & ROOT_BIT != 0 || (roots.contains(&id) && out.ret & live != 0);
                if ret_untrusted && st.ret_untrusted.insert(id) {
                    if let Some(cs) = callers.get(&id) {
                        for &c in cs {
                            if queued.insert(c) {
                                queue.push_back(c);
                            }
                        }
                    }
                }
                for t in std::mem::take(&mut st.pending) {
                    if queued.insert(t) {
                        queue.push_back(t);
                    }
                }
            }
            // Final walk: sinks against the converged masks.
            let mut final_ids: Vec<FnId> = walked.into_iter().collect();
            final_ids.sort_unstable();
            for id in final_ids {
                let facts_fn = &ws.files[id.0].1.fns[id.1];
                let Some(f) = pfn(id) else { continue };
                let tmask = st.tainted.get(&id).copied().unwrap_or(0);
                let live = tmask | ROOT_BIT;
                let masks: Vec<u64> = (0..f.params.len()).map(|i| param_bit(i) & tmask).collect();
                let out = {
                    let mut model = DetectModel {
                        sites: &sites[id.0][id.1],
                        summaries: &summaries,
                        st: &mut st,
                        sanitizers: &sanitizers,
                        live,
                        caller: id,
                    };
                    taint::run(f, &masks, live, &mut model)
                };
                st.pending.clear();
                if out.sinks.is_empty() {
                    continue;
                }
                let src = source_desc(id, &roots, &st, &sites[id.0][id.1], ws);
                for s in out.sinks {
                    taints.push((
                        ws.files[id.0].0.clone(),
                        s.line,
                        format!(
                            "attacker-controlled value reaches {} inside `{}` — {}; bound it \
                             first: compare against a config limit and bail out, `.min`/\
                             `.clamp` it, or parse through a validated constructor",
                            s.what,
                            facts_fn.qual_name(),
                            src
                        ),
                    ));
                }
            }
        }
    }

    // ---- Merge back into the workspace ----
    for (fi, deep) in &fresh {
        ws.deeps[*fi] = Some(deep.clone());
    }
    for fi in 0..n {
        let ariths: Vec<Vec<(String, u32)>> = match &ws.deeps[fi] {
            Some(d) => d.fns.iter().map(|df| df.ariths.clone()).collect(),
            None => continue,
        };
        for (j, list) in ariths.into_iter().enumerate() {
            if j >= ws.files[fi].1.fns.len() {
                break;
            }
            for (what, line) in list {
                ws.files[fi].1.fns[j]
                    .events
                    .push(Event::Arith { what, line });
            }
        }
    }
    taints.sort();
    taints.dedup();
    ws.taints = taints;
    if let Some(c) = cache {
        for (fi, deep) in fresh {
            c.set_deep(&ws.files[fi].0, deep);
        }
    }
}

/// Iterative callee-first DFS over the dirty functions.
fn post_order(starts: &[FnId], kids: &HashMap<FnId, Vec<FnId>>) -> Vec<FnId> {
    let mut order = Vec::new();
    let mut mark: HashMap<FnId, u8> = HashMap::new();
    let empty: Vec<FnId> = Vec::new();
    for &s in starts {
        if mark.contains_key(&s) {
            continue;
        }
        let mut stack: Vec<(FnId, usize)> = vec![(s, 0)];
        mark.insert(s, 1);
        while let Some(&mut (cur, ref mut ci)) = stack.last_mut() {
            let ks = kids.get(&cur).unwrap_or(&empty);
            if *ci < ks.len() {
                let k = ks[*ci];
                *ci += 1;
                if let std::collections::hash_map::Entry::Vacant(e) = mark.entry(k) {
                    e.insert(1);
                    stack.push((k, 0));
                }
            } else {
                mark.insert(cur, 2);
                order.push(cur);
                stack.pop();
            }
        }
    }
    order
}

/// Human description of where a function's taint comes from.
fn source_desc(
    id: FnId,
    roots: &HashSet<FnId>,
    st: &DetectState,
    sites: &HashMap<(String, u32), Vec<FnId>>,
    ws: &Workspace,
) -> String {
    let qual = |f: FnId| ws.files[f.0].1.fns[f.1].qual_name();
    if roots.contains(&id) {
        return format!("`{}` is an `[[untrusted]]` input root", qual(id));
    }
    if st.tainted.get(&id).copied().unwrap_or(0) != 0 {
        // Follow discovery parents back toward a root.
        let mut path = vec![id];
        let mut cur = id;
        let mut hops = 0;
        while let Some(&p) = st.origin.get(&cur) {
            if p == cur || hops > 32 {
                break;
            }
            path.push(p);
            cur = p;
            hops += 1;
            if roots.contains(&p) {
                break;
            }
        }
        path.reverse();
        let chain: Vec<String> = path.iter().map(|&f| qual(f)).collect();
        return format!("its arguments are tainted via `{}`", chain.join(" -> "));
    }
    // Taint arrived through the return value of an untrusted-returning
    // callee; name the first such call site.
    let mut names: Vec<&str> = Vec::new();
    for ((name, _), ts) in sites {
        if ts.iter().any(|t| st.ret_untrusted.contains(t)) {
            names.push(name);
        }
    }
    names.sort_unstable();
    match names.first() {
        Some(nm) => format!("it holds the result of `{nm}`, which returns untrusted input"),
        None => "it handles untrusted input".to_string(),
    }
}

struct DetectState {
    /// Per-fn tainted-parameter mask.
    tainted: HashMap<FnId, u64>,
    /// Which caller first tainted each fn (witness chains).
    origin: HashMap<FnId, FnId>,
    /// Fns whose return value derives from untrusted input.
    ret_untrusted: HashSet<FnId>,
    /// Fns whose tainted mask grew during the current walk.
    pending: Vec<FnId>,
}

/// Call model used while computing `ret_taint` summaries: resolved
/// calls map argument masks through the callee's own summary.
struct SummaryModel<'a> {
    sites: &'a HashMap<(String, u32), Vec<FnId>>,
    summaries: &'a HashMap<FnId, FnSummary>,
}

impl CallModel for SummaryModel<'_> {
    fn call(&mut self, name: &str, line: u32, _recv: u64, args: &[u64]) -> Option<u64> {
        let ts = self.sites.get(&(name.to_string(), line))?;
        if ts.is_empty() {
            return None;
        }
        let mut out = 0u64;
        for t in ts {
            let s = self.summaries.get(t)?;
            for (k, &am) in args.iter().enumerate() {
                if s.ret_taint & param_bit(k) != 0 {
                    out |= am;
                }
            }
        }
        Some(out)
    }
}

/// Call model for the detection walk: propagates live argument taint
/// into callee parameters and reads results through summaries plus the
/// untrusted-return set.
struct DetectModel<'a> {
    sites: &'a HashMap<(String, u32), Vec<FnId>>,
    summaries: &'a HashMap<FnId, FnSummary>,
    st: &'a mut DetectState,
    sanitizers: &'a HashSet<FnId>,
    live: u64,
    caller: FnId,
}

impl CallModel for DetectModel<'_> {
    fn call(&mut self, name: &str, line: u32, _recv: u64, args: &[u64]) -> Option<u64> {
        let ts = self.sites.get(&(name.to_string(), line))?;
        if ts.is_empty() {
            return None;
        }
        let mut out = 0u64;
        for &t in ts {
            for (k, &am) in args.iter().enumerate() {
                if am & self.live != 0 {
                    let e = self.st.tainted.entry(t).or_insert(0);
                    let bit = param_bit(k);
                    if *e & bit == 0 {
                        *e |= bit;
                        self.st.origin.entry(t).or_insert(self.caller);
                        self.st.pending.push(t);
                    }
                }
            }
            // A declared sanitizer returns bounded data no matter what
            // went in; its parameters were still tainted above, so the
            // guards *inside* it remain under analysis.
            if self.sanitizers.contains(&t) {
                continue;
            }
            match self.summaries.get(&t) {
                Some(s) => {
                    for (k, &am) in args.iter().enumerate() {
                        if s.ret_taint & param_bit(k) != 0 {
                            out |= am;
                        }
                    }
                }
                None => out |= args.iter().fold(0, |a, &b| a | b),
            }
            if self.st.ret_untrusted.contains(&t) {
                out |= ROOT_BIT;
            }
        }
        Some(out)
    }
}
