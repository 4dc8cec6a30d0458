//! Grammar-level VM profiling: per-rule calls, memo hits and misses,
//! completions and failures, pc-indexed instruction hit counts, each
//! rule's self cost in instructions, and a folded-stack export keyed by
//! the grammar's static call graph. Everything is counted, nothing is
//! timed, so two profiles of one parse are byte-identical.
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
//! A rule's *self cost* is the number of instructions executed at its
//! own pcs: the hits of every pc in its alternatives' code ranges. A
//! call instruction belongs to the caller, so the call is the caller's
//! cost and the callee's work is the callee's. Builtins and blackboxes
//! own no pcs, so their self cost is 0; they show up in the counts
//! (calls, completions, failures) only. The levels a byte scan or a
//! chain runs in bulk, and the records decoded in place, fire the same
//! hooks the general instructions would, so every count, the pc hits
//! included, is the same whichever way the VM ran the rule.
//!
//! Wall time is not measured here: a clock read per rule call costs
//! more than most rules and varies run to run. The benchmark's traced
//! layers (`vm.busy_us`, `flate.busy_us`, `extract.self_us`) time warm,
//! repeated parses instead.
//!
//! The pc-indexed counters correlate with `Program::disassemble`
//! listings.
//!
//! ## Folded stacks
//!
//! [`ProfileReport::folded`] emits the classic `a;b;c value` folded
//! format consumed by flamegraph tooling. The parse's true dynamic call
//! stacks are not recorded (that would mean per-call allocation on the
//! hot path); instead each rule's self cost is keyed by the *shortest
//! static call path* from the start rule, computed by BFS over the
//! compiled program's call graph (`Call`/`Loop`/`Star` instructions and
//! `Switch` cases). For recursion-free format grammars this coincides
//! with the dominant dynamic stack; for recursive rules it picks the
//! shortest entry path. Values are self instructions.

use crate::bytecode::{PRuleKind, Program};
use crate::check::{Grammar, NtId};
use std::fmt::Write as _;

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
    /// A call of `nt` that the memo did not answer finished, successfully
    /// or not: a frame, a blackbox, a builtin leaf, a level of a byte
    /// scan or of a chain, or a record decoded in place.
    #[inline(always)]
    fn done(&mut self, _nt: NtId, _ok: bool) {}
    /// One instruction dispatched at `pc`.
    #[inline(always)]
    fn instr(&mut self, _pc: u32) {}
    /// `n` instructions dispatched at `pc` (a byte scan's levels).
    #[inline(always)]
    fn instrs(&mut self, _pc: u32, _n: u64) {}
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
    /// Calls that completed with a parse tree.
    pub completions: u64,
    /// Calls that failed (frames that exhausted their alternatives,
    /// failed builtins, blackboxes and records).
    pub failures: u64,
}

/// The enabled `ProfSink`: accumulates counters during one parse.
/// Create per parse via [`crate::interp::vm::VmParser::parse_profiled`].
#[derive(Debug)]
pub struct Profiler {
    rules: Vec<RuleCounters>,
    instr_hits: Vec<u64>,
}

impl Profiler {
    /// A fresh profiler sized for a program with `rules` rules and
    /// `instrs` instructions.
    pub fn new(rules: usize, instrs: usize) -> Profiler {
        Profiler { rules: vec![RuleCounters::default(); rules], instr_hits: vec![0; instrs] }
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
    fn done(&mut self, nt: NtId, ok: bool) {
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
    /// Instructions executed at the rule's own pcs (0 for a builtin or a
    /// blackbox, which own none).
    pub self_instrs: u64,
}

/// The aggregated result of one profiled parse.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Per-rule profiles, sorted by self instructions, most first, ties
    /// in rule order. Rules that were never invoked are omitted.
    pub rules: Vec<RuleProfile>,
    /// Instruction hit counts, indexed by pc.
    pub instr_hits: Vec<u64>,
    /// Folded stacks: (`root;...;rule`, self instructions).
    folded: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Aggregates a finished [`Profiler`] against the program it ran.
    pub(crate) fn build(g: &Grammar, p: &Program, prof: Profiler) -> ProfileReport {
        let self_instrs = |nt: usize| match p.rules[nt].kind {
            PRuleKind::Alts { first, count } => p.alts[first as usize..(first + count) as usize]
                .iter()
                .flat_map(|a| &prof.instr_hits[a.first as usize..(a.first + a.count) as usize])
                .sum(),
            PRuleKind::Builtin(_) | PRuleKind::Blackbox(_) => 0,
        };
        let mut rules: Vec<RuleProfile> = prof
            .rules
            .iter()
            .enumerate()
            .filter(|(_, c)| c.calls > 0)
            .map(|(i, c)| {
                let nt = NtId(i as u32);
                let name = g.nt_name(nt).to_owned();
                RuleProfile { nt, name, counters: *c, self_instrs: self_instrs(i) }
            })
            .collect();
        rules.sort_by(|a, b| b.self_instrs.cmp(&a.self_instrs).then_with(|| a.nt.0.cmp(&b.nt.0)));
        let paths = static_paths(p);
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
                (path, r.self_instrs)
            })
            .collect();
        folded.sort();
        ProfileReport { rules, instr_hits: prof.instr_hits, folded }
    }

    /// The per-rule table: a header, one aligned row per invoked rule
    /// (the first `top` only, when given) and a `TOTAL` row over every
    /// rule. `self%` is a rule's share of all instructions executed.
    pub fn table(&self, top: Option<usize>) -> String {
        let name_w = self.rules.iter().map(|r| r.name.len()).max().unwrap_or(4).max("TOTAL".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12}  {:>6}",
            "rule", "calls", "memo-hit", "memo-miss", "ok", "fail", "self-instr", "self%"
        );
        let total: u64 = self.instr_hits.iter().sum();
        let pct = |n: u64| if total == 0 { 0.0 } else { 100.0 * n as f64 / total as f64 };
        let mut row = |name: &str, c: RuleCounters, instrs: u64| {
            let _ = writeln!(
                out,
                "{:name_w$}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}  {:>12}  {:>5.1}%",
                name,
                c.calls,
                c.memo_hits,
                c.memo_misses,
                c.completions,
                c.failures,
                instrs,
                pct(instrs),
            );
        };
        for r in self.rules.iter().take(top.unwrap_or(usize::MAX)) {
            row(&r.name, r.counters, r.self_instrs);
        }
        let mut tot = RuleCounters::default();
        let mut tot_instrs = 0;
        for r in &self.rules {
            let c = r.counters;
            tot.calls += c.calls;
            tot.memo_hits += c.memo_hits;
            tot.memo_misses += c.memo_misses;
            tot.completions += c.completions;
            tot.failures += c.failures;
            tot_instrs += r.self_instrs;
        }
        row("TOTAL", tot, tot_instrs);
        out
    }

    /// Folded-stack text (`root;...;rule <self-instructions>` per line),
    /// suitable for `flamegraph.pl` / speedscope. Paths follow the
    /// grammar's static call graph (see the module docs).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, n) in &self.folded {
            let _ = writeln!(out, "{path} {n}");
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

        let table = report.table(None);
        assert!(table.contains("rule"), "{table}");
        assert!(table.contains("TOTAL"), "{table}");
        assert!(table.contains('S'), "{table}");
        // A header, one row per invoked rule and the totals; `top` keeps
        // the header and the totals.
        assert_eq!(table.lines().count(), 2 + report.rules.len(), "{table}");
        let top = report.table(Some(1));
        let lines: Vec<&str> = top.lines().collect();
        assert_eq!(lines.len(), 3, "{top}");
        assert_eq!(lines[2], table.lines().last().unwrap(), "{top}");

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

    /// Every pc lies in exactly one rule's alternatives, so the self
    /// instructions account for every instruction executed, whether the
    /// VM ran it one at a time, in a record, a scan or a chain.
    #[test]
    fn self_instructions_sum_to_the_instruction_hits() {
        // A byte scan (`Str`) in a chain (`Strs`), as in elf's string tables.
        let strings = r#"
            S -> Strs[0, EOI];
            Strs -> Str[0, EOI] Strs[Str.end, EOI] / Str[0, EOI];
            Str -> Ch[0, 1] assert(Ch.val > 0) Str[1, EOI] {len = 1 + Str.len}
                 / x"00"[0, 1] {len = 0};
            Ch := u8;
        "#;
        let cases: [(&str, &[u8]); 3] = [
            (FIG2, &fig2_input()),
            (strings, b"ab\0cde\0\0"),
            (r#"S -> A[0, EOI] B[0, EOI] / A[0, EOI]; A -> "ab"[0, 2]; B -> "zz"[0, 2];"#, b"ab"),
        ];
        let mut listings = String::new();
        for (spec, input) in cases {
            let g = parse_grammar(spec).unwrap();
            let vm = VmParser::new(&g);
            let (tree, stats, report) = vm.parse_profiled(input);
            tree.unwrap();
            listings.push_str(&vm.program().disassemble(&g));
            let hits: u64 = report.instr_hits.iter().sum();
            assert!(hits > 0 && hits <= stats.steps, "{spec}");
            assert_eq!(report.rules.iter().map(|r| r.self_instrs).sum::<u64>(), hits, "{spec}");
            let folded: u64 = report
                .folded()
                .lines()
                .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
                .sum();
            assert_eq!(folded, hits, "{spec}");
        }
        for op in ["  record\n", "  scan ", "  chain "] {
            assert!(listings.contains(op), "no `{op}` in\n{listings}");
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
