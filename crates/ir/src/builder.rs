//! Programmatic construction of MicroIR functions and programs.
//!
//! The builder supports forward references to blocks and functions, so
//! mutually recursive code can be constructed in one pass. It is used by the
//! test suites and the property-based random program generator; the corpus
//! programs are written in the textual dialect instead (see [`crate::parse`]).

use std::collections::HashMap;

use crate::inst::{Inst, Terminator};
use crate::program::{BasicBlock, Function, Program};
use crate::types::{BinOp, BlockId, FuncId, Operand, Reg, RegionKind, UnOp, Width};

/// Errors produced when finalising a builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildError(pub String);

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "build error: {}", self.0)
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Program`] out of declared and defined functions.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    defs: Vec<Option<Function>>,
    names: Vec<String>,
    by_name: HashMap<String, FuncId>,
}

impl ProgramBuilder {
    /// Creates an empty program builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder::default()
    }

    /// Declares a function name (forward reference) and returns its id.
    ///
    /// Declaring the same name twice returns the same id.
    pub fn declare(&mut self, name: &str) -> FuncId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = FuncId(self.defs.len() as u32);
        self.defs.push(None);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Supplies the definition for a previously declared function.
    ///
    /// # Errors
    /// Fails if the function was already defined or the name mismatches the
    /// declaration.
    pub fn define(&mut self, id: FuncId, func: Function) -> Result<(), BuildError> {
        let slot = self
            .defs
            .get_mut(id.0 as usize)
            .ok_or_else(|| BuildError(format!("unknown function id {id}")))?;
        if slot.is_some() {
            return Err(BuildError(format!(
                "function `{}` defined twice",
                self.names[id.0 as usize]
            )));
        }
        if func.name != self.names[id.0 as usize] {
            return Err(BuildError(format!(
                "definition name `{}` does not match declaration `{}`",
                func.name, self.names[id.0 as usize]
            )));
        }
        *slot = Some(func);
        Ok(())
    }

    /// Declares and defines in one step.
    pub fn add(&mut self, func: Function) -> Result<FuncId, BuildError> {
        let id = self.declare(&func.name.clone());
        self.define(id, func)?;
        Ok(id)
    }

    /// Finalises the program with the given entry function name.
    ///
    /// # Errors
    /// Fails if any declared function lacks a definition or the entry does
    /// not exist.
    pub fn build(self, entry: &str) -> Result<Program, BuildError> {
        let mut funcs = Vec::with_capacity(self.defs.len());
        for (i, d) in self.defs.into_iter().enumerate() {
            funcs.push(d.ok_or_else(|| {
                BuildError(format!(
                    "function `{}` declared but never defined",
                    self.names[i]
                ))
            })?);
        }
        Program::from_functions(funcs, entry).map_err(BuildError)
    }
}

/// Builds one [`Function`] incrementally.
///
/// ```
/// use octo_ir::builder::FunctionBuilder;
/// use octo_ir::{Operand, Terminator};
///
/// let mut fb = FunctionBuilder::new("double", 1);
/// let x = fb.param(0);
/// let two = fb.emit_const(2);
/// let y = fb.emit_bin(octo_ir::BinOp::Mul, x.into(), two.into());
/// fb.terminate(Terminator::Ret(Some(Operand::Reg(y))));
/// let func = fb.finish()?;
/// assert_eq!(func.n_params, 1);
/// # Ok::<(), octo_ir::builder::BuildError>(())
/// ```
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    n_params: u16,
    next_reg: u16,
    blocks: Vec<(String, Vec<Inst>, Option<Terminator>)>,
    labels: HashMap<String, BlockId>,
    current: usize,
}

impl FunctionBuilder {
    /// Starts a function with `n_params` parameters; the entry block is
    /// created automatically and selected as the current block.
    pub fn new(name: &str, n_params: u16) -> FunctionBuilder {
        let mut fb = FunctionBuilder {
            name: name.to_string(),
            n_params,
            next_reg: n_params,
            blocks: Vec::new(),
            labels: HashMap::new(),
            current: 0,
        };
        let entry = fb.block("entry");
        fb.select(entry);
        fb
    }

    /// The register holding parameter `index`.
    ///
    /// # Panics
    /// Panics if `index >= n_params`.
    pub fn param(&self, index: u16) -> Reg {
        assert!(index < self.n_params, "parameter index out of range");
        Reg(index)
    }

    /// Allocates a fresh register.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Creates (or returns the id of) a block with the given label.
    pub fn block(&mut self, label: &str) -> BlockId {
        if let Some(&id) = self.labels.get(label) {
            return id;
        }
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push((label.to_string(), Vec::new(), None));
        self.labels.insert(label.to_string(), id);
        id
    }

    /// Makes `block` the target of subsequent `emit_*` calls.
    pub fn select(&mut self, block: BlockId) {
        self.current = block.0 as usize;
    }

    /// Appends a raw instruction to the current block.
    ///
    /// # Panics
    /// Panics if the current block is already terminated.
    pub fn emit(&mut self, inst: Inst) {
        let (_, insts, term) = &mut self.blocks[self.current];
        assert!(term.is_none(), "emitting into a terminated block");
        insts.push(inst);
    }

    /// Terminates the current block.
    ///
    /// # Panics
    /// Panics if the current block is already terminated.
    pub fn terminate(&mut self, term: Terminator) {
        let slot = &mut self.blocks[self.current].2;
        assert!(slot.is_none(), "block terminated twice");
        *slot = Some(term);
    }

    /// `dst = value`; returns `dst`.
    pub fn emit_const(&mut self, value: u64) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Const { dst, value });
        dst
    }

    /// `dst = op(lhs, rhs)`; returns `dst`.
    pub fn emit_bin(&mut self, op: BinOp, lhs: Operand, rhs: Operand) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Bin { dst, op, lhs, rhs });
        dst
    }

    /// `dst = op(src)`; returns `dst`.
    pub fn emit_un(&mut self, op: UnOp, src: Operand) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Un { dst, op, src });
        dst
    }

    /// `dst = *(addr + offset)`; returns `dst`.
    pub fn emit_load(&mut self, addr: Operand, offset: u64, width: Width) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Load {
            dst,
            addr,
            offset,
            width,
        });
        dst
    }

    /// `*(addr + offset) = src`.
    pub fn emit_store(&mut self, addr: Operand, offset: u64, src: Operand, width: Width) {
        self.emit(Inst::Store {
            addr,
            offset,
            src,
            width,
        });
    }

    /// Allocates memory; returns the register holding the base address.
    pub fn emit_alloc(&mut self, size: Operand, region: RegionKind) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Alloc { dst, size, region });
        dst
    }

    /// Calls `callee`; returns the register holding the return value.
    pub fn emit_call(&mut self, callee: FuncId, args: Vec<Operand>) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Call {
            dst: Some(dst),
            callee,
            args,
        });
        dst
    }

    /// Opens the input file; returns the fd register.
    pub fn emit_open(&mut self) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::FileOpen { dst });
        dst
    }

    /// Reads from the input file; returns the count register.
    pub fn emit_read(&mut self, fd: Operand, buf: Operand, len: Operand) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::FileRead { dst, fd, buf, len });
        dst
    }

    /// Reads one byte from the input file; returns the value register.
    pub fn emit_getc(&mut self, fd: Operand) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::FileGetc { dst, fd });
        dst
    }

    /// Finalises the function.
    ///
    /// # Errors
    /// Fails if any block lacks a terminator.
    pub fn finish(self) -> Result<Function, BuildError> {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        for (label, insts, term) in self.blocks {
            // A block ending in `trap` never falls through; synthesise an
            // unreachable return so sources need not write one.
            let term = match term {
                Some(t) => t,
                None if matches!(insts.last(), Some(Inst::Trap { .. })) => Terminator::Ret(None),
                None => {
                    return Err(BuildError(format!(
                        "block `{label}` in function `{}` has no terminator",
                        self.name
                    )))
                }
            };
            blocks.push(BasicBlock { label, insts, term });
        }
        if blocks.is_empty() {
            return Err(BuildError(format!(
                "function `{}` has no blocks",
                self.name
            )));
        }
        Ok(Function {
            name: self.name,
            n_params: self.n_params,
            n_regs: self.next_reg.max(self.n_params).max(1),
            blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_two_block_function() {
        let mut fb = FunctionBuilder::new("f", 1);
        let x = fb.param(0);
        let c = fb.emit_bin(BinOp::CmpEq, x.into(), Operand::Imm(0));
        let yes = fb.block("yes");
        let no = fb.block("no");
        fb.terminate(Terminator::Br {
            cond: c.into(),
            then_bb: yes,
            else_bb: no,
        });
        fb.select(yes);
        fb.terminate(Terminator::Ret(Some(Operand::Imm(1))));
        fb.select(no);
        fb.terminate(Terminator::Ret(Some(Operand::Imm(0))));
        let f = fb.finish().unwrap();
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.n_regs, 2);
        assert_eq!(f.block_by_label("yes"), Some(BlockId(1)));
    }

    #[test]
    fn missing_terminator_is_an_error() {
        let fb = FunctionBuilder::new("f", 0);
        let err = fb.finish().unwrap_err();
        assert!(err.0.contains("no terminator"));
    }

    #[test]
    fn program_builder_forward_reference() {
        let mut pb = ProgramBuilder::new();
        let callee = pb.declare("callee");
        let mut fb = FunctionBuilder::new("main", 0);
        let r = fb.emit_call(callee, vec![]);
        fb.terminate(Terminator::Ret(Some(r.into())));
        pb.add(fb.finish().unwrap()).unwrap();

        let mut fb = FunctionBuilder::new("callee", 0);
        fb.terminate(Terminator::Ret(Some(Operand::Imm(7))));
        pb.define(callee, fb.finish().unwrap()).unwrap();

        let p = pb.build("main").unwrap();
        assert_eq!(p.function_count(), 2);
    }

    #[test]
    fn undefined_declaration_fails_build() {
        let mut pb = ProgramBuilder::new();
        pb.declare("ghost");
        let err = pb.build("ghost").unwrap_err();
        assert!(err.0.contains("never defined"));
    }

    #[test]
    fn double_definition_rejected() {
        let mut pb = ProgramBuilder::new();
        let mut fb = FunctionBuilder::new("f", 0);
        fb.terminate(Terminator::Ret(None));
        let f = fb.finish().unwrap();
        let id = pb.add(f.clone()).unwrap();
        assert!(pb.define(id, f).is_err());
    }
}
