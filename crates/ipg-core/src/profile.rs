//! Grammar-level VM profiling: per-rule cycle attribution, memo
//! hit/miss counts, pc-indexed instruction hit counters, and a
//! folded-stack export keyed by the grammar's static call graph.
//!
//! The VM is instrumented through the `ProfSink` trait, a set of
//! inline hooks threaded through [`crate::interp::vm`] as a type
//! parameter. The unit type `()` is the *disabled* sink: every hook is
//! an empty `#[inline(always)]` function, so the uninstrumented parse
//! loop monomorphizes to exactly the code it was before profiling
//! existed — zero overhead by construction, not by measurement.
//! [`Profiler`] is the *enabled* sink; it is driven by
//! [`crate::interp::vm::VmParser::parse_profiled`] and aggregated into a
//! [`ProfileReport`].
//!
//! ## Attribution model
//!
//! Wall-clock self time is attributed with a boundary-flush scheme: the
//! profiler keeps its own nonterminal stack mirroring the VM's frame
//! stack, and on every transition (rule enter, rule exit, blackbox
//! bracket) the time elapsed since the previous transition is charged to
//! the rule on top of the stack. Work done between a rule's entry and its
//! first child call is therefore *self* time of that rule; child time is
//! charged to the child. Builtin leaves, the levels a byte scan runs in
//! bulk, and a chain's levels and record elements are counted (calls,
//! completions, failures) but not timed: reading the clock around a
//! few-nanosecond decode would measure the clock, so their time is their
//! caller's self time. Time before the root call (session setup) is
//! reported as `unattributed`.
//!
//! Instruction and suspension counters are pc-indexed (one slot per
//! [`crate::bytecode::Instr`] of the compiled program) and can be
//! correlated with `Program::disassemble` listings.
//!
//! ## Folded stacks
//!
//! [`ProfileReport::folded`] emits the classic `a;b;c value` folded
//! format consumed by flamegraph tooling. The parse's true dynamic call
//! stacks are not recorded (that would mean per-call allocation on the
//! hot path); instead each rule's self time is keyed by the *shortest
//! static call path* from the start rule, computed by BFS over the
//! compiled program's call graph (`Call`/`Loop`/`Star` instructions and
//! `Switch` cases). For recursion-free format grammars this coincides
//! with the dominant dynamic stack; for recursive rules it picks the
//! shortest entry path. Values are nanoseconds of self time.

use crate::bytecode::Program;
use crate::check::{Grammar, NtId};
use std::fmt::Write as _;
use std::time::Instant;

/// VM instrumentation hooks. Implemented by `()` (disabled: every hook
/// is a no-op that compiles away) and by [`Profiler`] (enabled).
pub(crate) trait ProfSink {
    /// A rule invocation (every call, including memo hits, builtins,
    /// blackboxes, a byte scan's levels and a chain's levels and records).
    #[inline(always)]
    fn call(&mut self, _nt: NtId) {}
    /// A memo-table query on a memoizable rule.
    #[inline(always)]
    fn memo(&mut self, _nt: NtId, _hit: bool) {}
    /// A frame (or blackbox bracket) was entered for `nt`.
    #[inline(always)]
    fn enter(&mut self, _nt: NtId) {}
    /// The frame/bracket for `nt` finished, successfully or not.
    #[inline(always)]
    fn exit(&mut self, _nt: NtId, _ok: bool) {}
    /// A builtin leaf, a level of a byte scan or of a chain, or a record
    /// decoded in place, finished: counted like a frame's exit, but not
    /// timed, so its time is its caller's self time.
    #[inline(always)]
    fn leaf(&mut self, _nt: NtId, _ok: bool) {}
    /// One instruction dispatched at `pc`.
    #[inline(always)]
    fn instr(&mut self, _pc: u32) {}
    /// `n` instructions dispatched at `pc` (a byte scan's levels).
    #[inline(always)]
    fn instrs(&mut self, _pc: u32, _n: u64) {}
    /// A streaming suspension taken while blocked at `pc`.
    #[inline(always)]
    fn suspend(&mut self, _pc: u32) {}
}

/// The disabled sink: all hooks are empty and inline to nothing.
impl ProfSink for () {}

/// Raw per-rule counters accumulated by a [`Profiler`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RuleCounters {
    /// Invocations (including memo hits and leaf rules).
    pub calls: u64,
    /// Memo-table hits.
    pub memo_hits: u64,
    /// Memo-table misses (memoizable rules only).
    pub memo_misses: u64,
    /// Frames that completed with a parse tree.
    pub completions: u64,
    /// Frames that exhausted their alternatives (or leaf failures).
    pub failures: u64,
    /// Wall-clock nanoseconds attributed to this rule's own work (0 for a
    /// builtin, whose time is its caller's).
    pub self_ns: u64,
}

/// The enabled `ProfSink`: accumulates counters during one parse.
/// Create per parse via [`crate::interp::vm::VmParser::parse_profiled`].
#[derive(Debug)]
pub struct Profiler {
    started: Instant,
    last: Instant,
    stack: Vec<NtId>,
    rules: Vec<RuleCounters>,
    instr_hits: Vec<u64>,
    suspend_hits: Vec<u64>,
    unattributed_ns: u64,
}

impl Profiler {
    /// A fresh profiler sized for a program with `rules` rules and
    /// `instrs` instructions.
    pub fn new(rules: usize, instrs: usize) -> Profiler {
        let now = Instant::now();
        Profiler {
            started: now,
            last: now,
            stack: Vec::with_capacity(32),
            rules: vec![RuleCounters::default(); rules],
            instr_hits: vec![0; instrs],
            suspend_hits: vec![0; instrs],
            unattributed_ns: 0,
        }
    }

    /// Charges the time since the previous boundary to the rule on top
    /// of the profiler stack (or to the unattributed bucket).
    #[inline]
    fn flush(&mut self) {
        let now = Instant::now();
        let dt = now.duration_since(self.last).as_nanos() as u64;
        self.last = now;
        match self.stack.last() {
            Some(nt) => self.rules[nt.0 as usize].self_ns += dt,
            None => self.unattributed_ns += dt,
        }
    }
}

impl ProfSink for &mut Profiler {
    #[inline]
    fn call(&mut self, nt: NtId) {
        self.rules[nt.0 as usize].calls += 1;
    }

    #[inline]
    fn memo(&mut self, nt: NtId, hit: bool) {
        let c = &mut self.rules[nt.0 as usize];
        if hit {
            c.memo_hits += 1;
        } else {
            c.memo_misses += 1;
        }
    }

    #[inline]
    fn enter(&mut self, nt: NtId) {
        self.flush();
        self.stack.push(nt);
    }

    #[inline]
    fn exit(&mut self, nt: NtId, ok: bool) {
        self.flush();
        self.stack.pop();
        self.leaf(nt, ok);
    }

    #[inline]
    fn leaf(&mut self, nt: NtId, ok: bool) {
        let c = &mut self.rules[nt.0 as usize];
        if ok {
            c.completions += 1;
        } else {
            c.failures += 1;
        }
    }

    #[inline]
    fn instr(&mut self, pc: u32) {
        self.instr_hits[pc as usize] += 1;
    }

    #[inline]
    fn instrs(&mut self, pc: u32, n: u64) {
        self.instr_hits[pc as usize] += n;
    }

    #[inline]
    fn suspend(&mut self, pc: u32) {
        self.suspend_hits[pc as usize] += 1;
    }
}

/// One rule's aggregated profile.
#[derive(Clone, Debug)]
pub struct RuleProfile {
    /// The rule's nonterminal id in the compiled program.
    pub nt: NtId,
    /// The rule's grammar name.
    pub name: String,
    /// Raw counters.
    pub counters: RuleCounters,
    /// Self time as a fraction of total attributed time, in percent.
    pub self_pct: f64,
}

/// The aggregated result of one profiled parse.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Per-rule profiles, sorted by self time, hottest first. Rules
    /// that were never invoked are omitted.
    pub rules: Vec<RuleProfile>,
    /// Total wall-clock nanoseconds of the profiled parse.
    pub total_ns: u64,
    /// Nanoseconds spent outside any rule (session setup/teardown).
    pub unattributed_ns: u64,
    /// Instruction hit counts, indexed by pc.
    pub instr_hits: Vec<u64>,
    /// Streaming suspension counts, indexed by the blocked pc.
    pub suspend_hits: Vec<u64>,
    /// Folded stacks: (`root;...;rule`, self nanoseconds).
    folded: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Aggregates a finished [`Profiler`] against the program it ran.
    pub(crate) fn build(g: &Grammar, p: &Program, mut prof: Profiler) -> ProfileReport {
        prof.flush(); // charge the tail (root exit → now)
        let total_ns = prof.started.elapsed().as_nanos() as u64;
        let paths = static_paths(p);
        let mut rules: Vec<RuleProfile> = prof
            .rules
            .iter()
            .enumerate()
            .filter(|(_, c)| c.calls > 0)
            .map(|(i, c)| {
                let nt = NtId(i as u32);
                RuleProfile {
                    nt,
                    name: g.nt_name(nt).to_owned(),
                    counters: *c,
                    self_pct: if total_ns == 0 {
                        0.0
                    } else {
                        100.0 * c.self_ns as f64 / total_ns as f64
                    },
                }
            })
            .collect();
        rules.sort_by(|a, b| {
            b.counters.self_ns.cmp(&a.counters.self_ns).then_with(|| a.nt.0.cmp(&b.nt.0))
        });
        let mut folded: Vec<(String, u64)> = rules
            .iter()
            .map(|r| {
                let path = match &paths[r.nt.0 as usize] {
                    Some(chain) => {
                        let names: Vec<&str> = chain.iter().map(|nt| g.nt_name(*nt)).collect();
                        names.join(";")
                    }
                    None => r.name.clone(),
                };
                (path, r.counters.self_ns)
            })
            .collect();
        folded.sort();
        ProfileReport {
            rules,
            total_ns,
            unattributed_ns: prof.unattributed_ns,
            instr_hits: prof.instr_hits,
            suspend_hits: prof.suspend_hits,
            folded,
        }
    }

    /// The `n` hottest rules by self time.
    pub fn top(&self, n: usize) -> &[RuleProfile] {
        &self.rules[..n.min(self.rules.len())]
    }

    /// Total suspensions recorded across all instructions.
    pub fn suspends(&self) -> u64 {
        self.suspend_hits.iter().sum()
    }

    /// The per-rule table: one aligned text row per invoked rule, plus
    /// a footer of two lines: the totals, and a note that builtin leaves
    /// are counted but not timed.
    pub fn table(&self) -> String {
        let name_w = self.rules.iter().map(|r| r.name.len()).max().unwrap_or(4).max("TOTAL".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12}  {:>6}",
            "rule", "calls", "memo-hit", "memo-miss", "ok", "fail", "self-us", "self%"
        );
        let mut tot = RuleCounters::default();
        for r in &self.rules {
            let c = r.counters;
            let _ = writeln!(
                out,
                "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12.1}  {:>5.1}%",
                r.name,
                c.calls,
                c.memo_hits,
                c.memo_misses,
                c.completions,
                c.failures,
                c.self_ns as f64 / 1000.0,
                r.self_pct,
            );
            tot.calls += c.calls;
            tot.memo_hits += c.memo_hits;
            tot.memo_misses += c.memo_misses;
            tot.completions += c.completions;
            tot.failures += c.failures;
            tot.self_ns += c.self_ns;
        }
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12.1}  {:>5.1}%",
            "TOTAL",
            tot.calls,
            tot.memo_hits,
            tot.memo_misses,
            tot.completions,
            tot.failures,
            tot.self_ns as f64 / 1000.0,
            if self.total_ns == 0 {
                0.0
            } else {
                100.0 * tot.self_ns as f64 / self.total_ns as f64
            },
        );
        out.push_str(
            "(builtin leaves are counted, not timed: their time is their caller's self-us)\n",
        );
        out
    }

    /// Folded-stack text (`root;...;rule <self-ns>` per line), suitable
    /// for `flamegraph.pl` / speedscope. Paths follow the grammar's
    /// static call graph (see the module docs).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, ns) in &self.folded {
            let _ = writeln!(out, "{path} {ns}");
        }
        out
    }
}

/// For every rule, the shortest static call path from the start rule
/// (inclusive of both endpoints), or `None` if unreachable from the
/// start by static edges.
fn static_paths(p: &Program) -> Vec<Option<Vec<NtId>>> {
    let n = p.rules.len();
    let mut parent: Vec<u32> = vec![u32::MAX; n];
    let mut seen = vec![false; n];
    let start = p.start.0 as usize;
    seen[start] = true;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(nt) = queue.pop_front() {
        for callee in p.callees(NtId(nt as u32)) {
            let c = callee.0 as usize;
            if !seen[c] {
                seen[c] = true;
                parent[c] = nt as u32;
                queue.push_back(c);
            }
        }
    }
    (0..n)
        .map(|i| {
            if !seen[i] {
                return None;
            }
            let mut chain = vec![NtId(i as u32)];
            let mut cur = i;
            while parent[cur] != u32::MAX {
                cur = parent[cur] as usize;
                chain.push(NtId(cur as u32));
            }
            chain.reverse();
            Some(chain)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::frontend::parse_grammar;
    use crate::interp::vm::VmParser;

    const FIG2: &str = r#"
        S -> H[0, 8] Data[H.offset, H.offset + H.length];
        H -> Int[0, 4] {offset = Int.val} Int[4, 8] {length = Int.val};
        Int := u32le;
        Data := bytes;
    "#;

    fn fig2_input() -> Vec<u8> {
        let mut input = vec![8u8, 0, 0, 0, 4, 0, 0, 0];
        input.extend_from_slice(b"DATA");
        input
    }

    #[test]
    fn profiled_parse_matches_unprofiled_and_counts_rules() {
        let g = parse_grammar(FIG2).unwrap();
        let vm = VmParser::new(&g);
        let input = fig2_input();
        let plain = vm.parse(&input).unwrap();
        let (tree, stats, report) = vm.parse_profiled(&input);
        let tree = tree.unwrap();
        assert_eq!(tree.root().to_tree(), plain.root().to_tree());
        assert!(stats.steps > 0);

        // Every rule fired: S and H once, Int twice, Data once.
        let by_name = |n: &str| {
            report.rules.iter().find(|r| r.name == n).unwrap_or_else(|| panic!("rule {n}"))
        };
        assert_eq!(by_name("S").counters.calls, 1);
        assert_eq!(by_name("S").counters.completions, 1);
        assert_eq!(by_name("H").counters.calls, 1);
        assert_eq!(by_name("Int").counters.calls, 2);
        assert_eq!(by_name("Data").counters.calls, 1);

        // Instruction hits: at least one pc fired, none exceed steps.
        assert!(report.instr_hits.iter().any(|&h| h > 0));
        assert!(report.instr_hits.iter().sum::<u64>() <= stats.steps);
    }

    #[test]
    fn table_and_folded_are_well_formed() {
        let g = parse_grammar(FIG2).unwrap();
        let vm = VmParser::new(&g);
        let (tree, _, report) = vm.parse_profiled(&fig2_input());
        tree.unwrap();

        let table = report.table();
        assert!(table.contains("rule"), "{table}");
        assert!(table.contains("TOTAL"), "{table}");
        assert!(table.contains('S'), "{table}");

        // Folded paths follow the static call graph from the start rule.
        let folded = report.folded();
        let mut paths: Vec<&str> = folded.lines().map(|l| l.rsplit_once(' ').unwrap().0).collect();
        paths.sort();
        assert_eq!(paths, vec!["S", "S;Data", "S;H", "S;H;Int"]);
        for line in folded.lines() {
            let (_, v) = line.rsplit_once(' ').unwrap();
            v.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn failures_and_memo_hits_are_attributed() {
        let g = parse_grammar(
            r#"
            S -> A[0, EOI] B[0, EOI] / A[0, EOI];
            A -> "ab"[0, 2];
            B -> "zz"[0, 2];
            "#,
        )
        .unwrap();
        let vm = VmParser::new(&g);
        let (tree, _, report) = vm.parse_profiled(b"ab");
        tree.unwrap();
        let a = report.rules.iter().find(|r| r.name == "A").unwrap();
        // A is called in both alternatives at the same interval: one
        // real completion, one memo hit.
        assert_eq!(a.counters.calls, 2);
        assert_eq!(a.counters.completions, 1);
        assert_eq!(a.counters.memo_hits, 1);
        let b = report.rules.iter().find(|r| r.name == "B").unwrap();
        assert_eq!(b.counters.failures, 1);
    }
}
