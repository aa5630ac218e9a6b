//! Intra-function control-flow graphs.
//!
//! Paper §VII-B lists control-flow-graph construction among the analyses
//! used to relate functions across builds. This module builds basic-block
//! CFGs from binary function bodies; the signature matcher can then
//! compare structure rather than raw token streams, and the CFG is the
//! natural substrate for future instruction-level patch placement.

use std::collections::{BTreeMap, BTreeSet};

use kshot_isa::disasm::disassemble;
use kshot_isa::{Inst, IsaError};

/// A basic block: a maximal straight-line instruction run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first instruction.
    pub start: u64,
    /// Address one past the last instruction.
    pub end: u64,
    /// Instructions with their addresses.
    pub insts: Vec<(u64, Inst)>,
    /// Successor block start addresses.
    pub successors: Vec<u64>,
}

impl BasicBlock {
    /// Byte length of the block.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the block holds no instructions (never produced by
    /// [`Cfg::build`], present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

/// A function's control-flow graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    blocks: BTreeMap<u64, BasicBlock>,
    entry: u64,
}

impl Cfg {
    /// Build the CFG of a function body laid out at `base`.
    ///
    /// Branch targets outside the body (calls, tail jumps into other
    /// functions) do not create blocks; `call` is treated as falling
    /// through (standard intraprocedural convention).
    ///
    /// # Errors
    ///
    /// Propagates decode failures — CFGs are only built over valid code.
    pub fn build(body: &[u8], base: u64) -> Result<Cfg, IsaError> {
        let insts = disassemble(body, base)?;
        let end = base + body.len() as u64;
        let in_body = |a: u64| a >= base && a < end;
        // Pass 1: leaders.
        let mut leaders: BTreeSet<u64> = BTreeSet::new();
        if !insts.is_empty() {
            leaders.insert(base);
        }
        for (i, (addr, inst)) in insts.iter().enumerate() {
            let next = addr + inst.encoded_len() as u64;
            match inst {
                Inst::Jmp { .. } | Inst::Jcc { .. } => {
                    if let Some(t) = inst.branch_target(*addr) {
                        if in_body(t) {
                            leaders.insert(t);
                        }
                    }
                    if i + 1 < insts.len() {
                        leaders.insert(next);
                    }
                }
                Inst::Ret | Inst::Halt | Inst::Trap if i + 1 < insts.len() => {
                    leaders.insert(next);
                }
                _ => {}
            }
        }
        // Pass 2: carve blocks.
        let mut blocks = BTreeMap::new();
        let leader_list: Vec<u64> = leaders.iter().copied().collect();
        for (bi, &start) in leader_list.iter().enumerate() {
            let stop = leader_list.get(bi + 1).copied().unwrap_or(end);
            let block_insts: Vec<(u64, Inst)> = insts
                .iter()
                .filter(|(a, _)| *a >= start && *a < stop)
                .cloned()
                .collect();
            let last = block_insts.last().cloned();
            let mut successors = Vec::new();
            if let Some((laddr, linst)) = last {
                match linst {
                    Inst::Jmp { .. } => {
                        if let Some(t) = linst.branch_target(laddr) {
                            if in_body(t) {
                                successors.push(t);
                            }
                        }
                    }
                    Inst::Jcc { .. } => {
                        if let Some(t) = linst.branch_target(laddr) {
                            if in_body(t) {
                                successors.push(t);
                            }
                        }
                        let fall = laddr + linst.encoded_len() as u64;
                        if in_body(fall) {
                            successors.push(fall);
                        }
                    }
                    Inst::Ret | Inst::Halt | Inst::Trap => {}
                    _ => {
                        let fall = laddr + linst.encoded_len() as u64;
                        if in_body(fall) {
                            successors.push(fall);
                        }
                    }
                }
            }
            blocks.insert(
                start,
                BasicBlock {
                    start,
                    end: stop,
                    insts: block_insts,
                    successors,
                },
            );
        }
        Ok(Cfg {
            blocks,
            entry: base,
        })
    }

    /// Entry block address.
    pub fn entry(&self) -> u64 {
        self.entry
    }

    /// All blocks in address order.
    pub fn blocks(&self) -> impl Iterator<Item = &BasicBlock> {
        self.blocks.values()
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total edge count.
    pub fn edge_count(&self) -> usize {
        self.blocks.values().map(|b| b.successors.len()).sum()
    }

    /// Blocks reachable from the entry (DFS).
    pub fn reachable(&self) -> BTreeSet<u64> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![self.entry];
        while let Some(a) = stack.pop() {
            if !seen.insert(a) {
                continue;
            }
            if let Some(b) = self.blocks.get(&a) {
                stack.extend(b.successors.iter().copied());
            }
        }
        seen
    }

    /// Back edges (target ≤ source start): loop evidence.
    pub fn back_edges(&self) -> Vec<(u64, u64)> {
        self.blocks
            .values()
            .flat_map(|b| {
                b.successors
                    .iter()
                    .filter(move |&&t| t <= b.start)
                    .map(move |&t| (b.start, t))
            })
            .collect()
    }

    /// Structural similarity with another CFG in `[0, 1]`: compares the
    /// multiset of (block instruction count, out-degree) pairs — a cheap,
    /// layout-independent shape metric used alongside token signatures.
    pub fn shape_similarity(&self, other: &Cfg) -> f64 {
        let shape = |c: &Cfg| -> BTreeMap<(usize, usize), usize> {
            let mut m = BTreeMap::new();
            for b in c.blocks.values() {
                *m.entry((b.insts.len(), b.successors.len())).or_insert(0) += 1;
            }
            m
        };
        let a = shape(self);
        let b = shape(other);
        let keys: BTreeSet<_> = a.keys().chain(b.keys()).collect();
        let mut inter = 0usize;
        let mut union = 0usize;
        for k in keys {
            let x = a.get(k).copied().unwrap_or(0);
            let y = b.get(k).copied().unwrap_or(0);
            inter += x.min(y);
            union += x.max(y);
        }
        if union == 0 {
            1.0
        } else {
            inter as f64 / union as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kshot_isa::Cond;
    use kshot_kcc::ir::{CondExpr, Expr, Function, Program, Stmt};
    use kshot_kcc::{link, CodegenOptions};

    fn cfg_of(f: Function) -> Cfg {
        let mut p = Program::new();
        p.add_function(f);
        let img = link(&p, &CodegenOptions::default(), 0x10_0000, 0x90_0000).unwrap();
        let sym = img.symbols.functions()[0].clone();
        Cfg::build(img.function_bytes(&sym.name).unwrap(), sym.addr).unwrap()
    }

    #[test]
    fn straight_line_is_two_blocks() {
        // Body + the explicit-return jump to the epilogue → entry block
        // jumping to the epilogue block.
        let cfg = cfg_of(Function::new("f", 0, 0).returning(Expr::c(5)));
        assert!(cfg.block_count() >= 2);
        assert!(cfg.back_edges().is_empty());
        // Everything reachable from entry.
        assert_eq!(cfg.reachable().len(), cfg.block_count());
        // Exactly one exit (the ret block).
        let exits = cfg.blocks().filter(|b| b.successors.is_empty()).count();
        assert_eq!(exits, 1);
    }

    #[test]
    fn if_else_forms_a_diamond() {
        let cfg = cfg_of(Function::new("f", 1, 0).with_body(vec![Stmt::If {
            cond: CondExpr::new(Expr::param(0), Cond::Eq, Expr::c(0)),
            then: vec![Stmt::Return(Expr::c(1))],
            els: vec![Stmt::Return(Expr::c(2))],
        }]));
        // Some block has two successors (the conditional branch).
        assert!(cfg.blocks().any(|b| b.successors.len() == 2));
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn loop_produces_a_back_edge() {
        let cfg = cfg_of(Function::new("f", 1, 1).with_body(vec![
            Stmt::Assign(0, Expr::c(0)),
            Stmt::While {
                cond: CondExpr::new(Expr::local(0), Cond::B, Expr::param(0)),
                body: vec![Stmt::Assign(0, Expr::local(0).add(Expr::c(1)))],
            },
            Stmt::Return(Expr::local(0)),
        ]));
        assert!(
            !cfg.back_edges().is_empty(),
            "while loop must produce a back edge"
        );
    }

    #[test]
    fn call_is_intraprocedural_fallthrough() {
        let mut p = Program::new();
        p.add_function(
            Function::new("callee", 0, 0)
                .with_inline(kshot_kcc::ir::InlineHint::Never)
                .returning(Expr::c(1)),
        );
        p.add_function(
            Function::new("caller", 0, 0)
                .with_inline(kshot_kcc::ir::InlineHint::Never)
                .returning(Expr::call("callee", vec![])),
        );
        let img = link(&p, &CodegenOptions::default(), 0x10_0000, 0x90_0000).unwrap();
        let sym = img.symbols.lookup("caller").unwrap().clone();
        let cfg = Cfg::build(img.function_bytes("caller").unwrap(), sym.addr).unwrap();
        // The callee's entry is outside the body → no edge into it; the
        // call's block falls through within the function.
        for b in cfg.blocks() {
            for s in &b.successors {
                assert!(*s >= sym.addr && *s < sym.addr + sym.size);
            }
        }
    }

    #[test]
    fn shape_similarity_discriminates() {
        let straight = cfg_of(Function::new("f", 0, 0).returning(Expr::c(5)));
        let straight2 = cfg_of(Function::new("g", 0, 0).returning(Expr::c(9)));
        let loopy = cfg_of(Function::new("h", 1, 1).with_body(vec![
            Stmt::Assign(0, Expr::c(0)),
            Stmt::While {
                cond: CondExpr::new(Expr::local(0), Cond::B, Expr::param(0)),
                body: vec![Stmt::Assign(0, Expr::local(0).add(Expr::c(1)))],
            },
            Stmt::Return(Expr::local(0)),
        ]));
        assert!(straight.shape_similarity(&straight2) > 0.9);
        assert!(straight.shape_similarity(&loopy) < 0.6);
        assert!((loopy.shape_similarity(&loopy) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(Cfg::build(&[0xAB, 0xCD], 0).is_err());
    }

    #[test]
    fn empty_body() {
        let cfg = Cfg::build(&[], 0x100).unwrap();
        assert_eq!(cfg.block_count(), 0);
        assert_eq!(cfg.edge_count(), 0);
    }
}
