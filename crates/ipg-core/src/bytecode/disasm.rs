//! The program listing ([`Program::disassemble`]) that the bytecode
//! snapshots pin.

use super::{Aff, BExpr, ExprId, Form, Instr, PRuleKind, Program, RecOp, Src};
use crate::check::{Grammar, NtId};
use std::fmt::Write as _;

impl Program {
    fn nt_name(&self, nt: NtId) -> &str {
        &self.nt_table.names[nt.0 as usize]
    }

    /// Renders a human-readable listing of the whole program.
    ///
    /// The output is deterministic for a given grammar; the snapshot tests
    /// pin it so that lowering changes show up as reviewable diffs.
    pub fn disassemble(&self, g: &Grammar) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "; program `{}`: {} rules, {} alts, {} instrs, {} exprs, {} cases, {} lit bytes",
            g.nt_name(self.start),
            self.rules.len(),
            self.alts.len(),
            self.code.len(),
            self.exprs.len(),
            self.cases.len(),
            self.lits.len()
        );
        for (i, rule) in self.rules.iter().enumerate() {
            let nt = NtId(i as u32);
            let local = if rule.is_local { " (local)" } else { "" };
            match rule.kind {
                PRuleKind::Builtin(b) => {
                    let _ = writeln!(s, "rule {i} {}{local} := builtin {b}", self.nt_name(nt));
                }
                PRuleKind::Blackbox(idx) => {
                    let name =
                        g.blackboxes().get(idx as usize).map(|bb| bb.name.as_str()).unwrap_or("?");
                    let _ = writeln!(
                        s,
                        "rule {i} {}{local} := blackbox #{idx} ({name})",
                        self.nt_name(nt)
                    );
                }
                PRuleKind::Alts { first, count } => {
                    let _ = writeln!(s, "rule {i} {}{local}:", self.nt_name(nt));
                    for a in first..first + count {
                        let alt = self.alts[a as usize];
                        let _ = writeln!(s, "  alt {} [slots={}]:", a - first, alt.n_slots);
                        for pc in alt.first..alt.first + alt.count {
                            let _ = writeln!(
                                s,
                                "    {pc:04}  {}",
                                self.render_instr(g, self.code[pc as usize])
                            );
                        }
                    }
                }
            }
        }
        s
    }

    fn render_instr(&self, g: &Grammar, instr: Instr) -> String {
        match instr {
            Instr::Match { lit, lo, hi, slot } => {
                let lit = crate::interp::preview(self.lit(lit));
                format!("match {lit}{} -> s{slot}", self.render_interval(g, lo, hi))
            }
            Instr::Call { nt, lo, hi, slot } => {
                format!("call {}{} -> s{slot}", self.nt_name(nt), self.render_interval(g, lo, hi))
            }
            Instr::Set { attr, expr, .. } => {
                format!("set {} = {}", g.attr_name(attr), self.render_expr(g, expr))
            }
            Instr::Guard { expr } => format!("guard {}", self.render_expr(g, expr)),
            Instr::Loop { var, from, to, nt, lo, hi, slot, .. } => format!(
                "loop {} = {} to {} do {}{} -> s{slot}",
                g.attr_name(var),
                self.render_expr(g, from),
                self.render_expr(g, to),
                self.nt_name(nt),
                self.render_interval(g, lo, hi)
            ),
            Instr::Star { nt, lo, hi, slot } => {
                format!("star {}{} -> s{slot}", self.nt_name(nt), self.render_interval(g, lo, hi))
            }
            Instr::Switch { first, count, slot } => {
                let mut s = format!("switch -> s{slot}");
                for case in &self.cases[first as usize..(first + count as u32) as usize] {
                    let target = format!(
                        "{}{}",
                        self.nt_name(case.nt),
                        self.render_interval(g, case.lo, case.hi)
                    );
                    match case.cond {
                        Some(c) => {
                            let _ = write!(
                                s,
                                "\n            case {} => {target}",
                                self.render_expr(g, c)
                            );
                        }
                        None => {
                            let _ = write!(s, "\n            default => {target}");
                        }
                    }
                }
                s
            }
            Instr::Record { rec } => {
                let r = self.records[rec as usize];
                let mut s = String::from("record");
                for op in self.ops(&r) {
                    let _ = write!(s, "\n            {}", self.render_op(g, *op));
                }
                s
            }
            Instr::Scan { scan } => {
                let sc = &self.scans[scan as usize];
                let (byte, lit) = (self.nt_name(sc.byte), crate::interp::preview(self.lit(sc.lit)));
                format!("scan {byte}[0, 1] until {lit}[{}, {}]", sc.lit_lo, sc.lit_hi)
            }
            Instr::Chain { chain } => {
                let c = self.chains[chain as usize];
                let head = self.render_instr(g, c.head);
                let s = format!("chain{}", head.strip_prefix("call").unwrap_or(&head));
                match c.record {
                    Some(r) => format!("{s} by record {:04}", self.records[r as usize].pc),
                    None => s,
                }
            }
        }
    }

    fn render_op(&self, g: &Grammar, op: RecOp) -> String {
        let aff = |a| self.render_aff(g, a);
        match op {
            RecOp::Lit { lit, lo, hi, slot } => {
                let lit = crate::interp::preview(self.lit(lit));
                format!("match {lit}[{}, {}] -> s{slot}", aff(lo), aff(hi))
            }
            RecOp::Field { nt, lo, hi, slot, .. } => {
                format!("call {}[{}, {}] -> s{slot}", self.nt_name(nt), aff(lo), aff(hi))
            }
            RecOp::Set { attr, form, .. } => {
                format!("set {} = {}", g.attr_name(attr), self.render_form(g, form))
            }
            RecOp::Guard { form } => format!("guard {}", self.render_form(g, form)),
        }
    }

    fn render_aff(&self, g: &Grammar, a: Aff) -> String {
        let mut s = String::new();
        if a.c != 0 || a.len == 0 {
            s = a.c.to_string();
        }
        for t in &self.terms[a.first as usize..(a.first + a.len) as usize] {
            let name = match t.src {
                Src::Attr(sym) | Src::Inner(sym) => g.attr_name(sym).to_owned(),
                Src::Field { slot, nt, attr } | Src::Sibling { slot, nt, attr } => {
                    format!("s{slot}:{}.{}", self.nt_name(nt), g.attr_name(attr))
                }
                Src::Byte => "byte".to_owned(),
            };
            let (sign, k) =
                if t.coef < 0 { (" - ", t.coef.unsigned_abs()) } else { (" + ", t.coef as u64) };
            let sign = if s.is_empty() { sign.trim_start() } else { sign };
            let sign = if sign == "+ " { "" } else { sign };
            let _ = match k {
                1 => write!(s, "{sign}{name}"),
                _ => write!(s, "{sign}{k} * {name}"),
            };
        }
        s
    }

    fn render_form(&self, g: &Grammar, form: Form) -> String {
        let aff = |a| self.render_aff(g, a);
        match form {
            Form::Aff(a) => aff(a),
            Form::Cmp(op, a, b) => format!("{} {op} {}", aff(a), aff(b)),
            Form::Cond(op, a, b, t, f) => {
                format!("{} {op} {} ? {} : {}", aff(a), aff(b), aff(t), aff(f))
            }
        }
    }

    /// `[lo, hi]`.
    fn render_interval(&self, g: &Grammar, lo: ExprId, hi: ExprId) -> String {
        format!("[{}, {}]", self.render_expr(g, lo), self.render_expr(g, hi))
    }

    fn render_expr(&self, g: &Grammar, e: ExprId) -> String {
        match self.exprs[e.0 as usize] {
            BExpr::Num(n) => n.to_string(),
            BExpr::Eoi => "EOI".into(),
            BExpr::Local { sym, .. } => g.attr_name(sym).to_owned(),
            BExpr::Bin(op, a, b) => {
                format!("({} {op} {})", self.render_expr(g, a), self.render_expr(g, b))
            }
            BExpr::Cond(c, t, f) => format!(
                "({} ? {} : {})",
                self.render_expr(g, c),
                self.render_expr(g, t),
                self.render_expr(g, f)
            ),
            BExpr::NtAttr { slot, nt, attr, .. } => {
                format!("s{slot}:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::ElemAttr { slot, nt, index, attr, .. } => format!(
                "s{slot}:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::OuterAttr { nt, attr, .. } => {
                format!("outer:{}.{}", self.nt_name(nt), g.attr_name(attr))
            }
            BExpr::OuterElem { nt, index, attr, .. } => format!(
                "outer:{}({}).{}",
                self.nt_name(nt),
                self.render_expr(g, index),
                g.attr_name(attr)
            ),
            BExpr::Exists { var, slot, nt, cond, then, els, .. } => {
                let arr = match slot {
                    Some(sl) => format!("s{sl}:{}", self.nt_name(nt)),
                    None => format!("outer:{}", self.nt_name(nt)),
                };
                format!(
                    "(exists {} in {arr}. {} ? {} : {})",
                    g.attr_name(var),
                    self.render_expr(g, cond),
                    self.render_expr(g, then),
                    self.render_expr(g, els)
                )
            }
        }
    }
}
