//! Textual assembler for MicroIR.
//!
//! The corpus programs (the 15 `S`/`T` pairs of Table II) are written in
//! this dialect. The syntax is line-oriented; `;` starts a comment.
//!
//! ```text
//! func gif_decode(buf, len) {
//! entry:
//!     magic = load.4 buf
//!     ok = eq magic, 0x38464947        ; "GIF8"
//!     br ok, body, bad
//! body:
//!     out = alloc 256
//!     n = getc fd                      ; one byte from the input file
//!     store.1 out + 4, n
//!     ret 0
//! bad:
//!     halt 1
//! }
//! ```
//!
//! Instruction forms (registers are bare identifiers; integers may be
//! decimal, `0x` hex, or `'c'` character literals):
//!
//! | form | meaning |
//! |---|---|
//! | `x = 5` / `x = y` | constant / move |
//! | `x = add a, b` (all [`BinOp`] mnemonics) | binary op |
//! | `x = not a` / `x = neg a` | unary op |
//! | `x = cadd.W a, b` / `csub` / `cmul` | overflow-checked op (crash on overflow) |
//! | `x = load.W p` / `x = load.W p + 8` | memory load |
//! | `store.W p, v` / `store.W p + 8, v` | memory store |
//! | `x = alloc n` / `x = salloc n` | heap / stack allocation |
//! | `x = call f(a, b)` / `call f()` | direct call |
//! | `x = icall t(a)` / `icall t()` | indirect call |
//! | `x = faddr f` / `x = baddr label` | code addresses |
//! | `x = open` | open the input file |
//! | `x = read fd, buf, len` | file read (advances position) |
//! | `x = getc fd` | single-byte read |
//! | `seek fd, pos` / `x = tell fd` / `x = fsize fd` | position control |
//! | `x = mmap fd` | map whole input |
//! | `trap 3` / `nop` | abort / no-op |
//!
//! Terminators: `jmp L`, `br c, L1, L2`,
//! `switch x { 1 -> a, 2 -> b, _ -> d }`, `ijmp t`, `ret [v]`, `halt v`.

use std::collections::HashMap;
use std::fmt;

use crate::builder::{FunctionBuilder, ProgramBuilder};
use crate::inst::{Inst, Terminator};
use crate::program::Program;
use crate::types::{BinOp, CheckedOp, Operand, Reg, RegionKind, UnOp, Width};

/// A parse failure, with the 1-based source line where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

type PResult<T> = Result<T, ParseError>;

fn err<T>(line: usize, msg: impl Into<String>) -> PResult<T> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Parses a complete program. The entry function must be named `main`.
///
/// # Errors
/// Returns the first syntax or reference error encountered.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    parse_program_with_entry(src, "main")
}

/// Parses a complete program and checks it with
/// [`crate::validate::validate`]: what every program read from a file or
/// a wire must pass before it runs.
///
/// # Errors
/// The parse error, or else the first validation error, as text.
pub fn parse_valid_program(src: &str) -> Result<Program, String> {
    let program = parse_program(src).map_err(|e| e.to_string())?;
    crate::validate::validate(&program).map_err(|errors| errors[0].to_string())?;
    Ok(program)
}

/// Parses a complete program with an explicit entry function name.
///
/// # Errors
/// Returns the first syntax or reference error encountered, or an error on
/// the last line if the entry function is missing.
pub fn parse_program_with_entry(src: &str, entry: &str) -> Result<Program, ParseError> {
    let mut parser = Parser::new(src);
    let mut pb = ProgramBuilder::new();
    let mut n_lines = 0;
    while let Some((line_no, line)) = parser.next_meaningful_line() {
        n_lines = line_no;
        let toks = tokenize(line, line_no)?;
        if toks.first().map(Token::text) == Some("func") {
            parser.parse_function(&toks, line_no, &mut pb)?;
        } else {
            return err(line_no, format!("expected `func`, found `{}`", line.trim()));
        }
    }
    pb.build(entry).map_err(|e| ParseError {
        line: n_lines,
        msg: e.0,
    })
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Int(u64),
    Punct(char),
    Arrow,
}

impl Token {
    fn text(&self) -> &str {
        match self {
            Token::Ident(s) => s,
            _ => "",
        }
    }
}

fn tokenize(line: &str, line_no: usize) -> PResult<Vec<Token>> {
    let mut toks = Vec::new();
    let bytes: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            ' ' | '\t' => i += 1,
            ';' => break,
            ',' | '(' | ')' | '{' | '}' | '=' | '+' | ':' | '_' => {
                // `->` arrow; `=` may start `=` alone.
                if c == '-' {
                    unreachable!()
                }
                toks.push(Token::Punct(c));
                i += 1;
            }
            '-' => {
                if bytes.get(i + 1) == Some(&'>') {
                    toks.push(Token::Arrow);
                    i += 2;
                } else {
                    // negative integer literal
                    let start = i + 1;
                    let mut j = start;
                    while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
                        j += 1;
                    }
                    let text: String = bytes[start..j].iter().collect();
                    let v = parse_int(&text)
                        .ok_or(())
                        .or_else(|()| err(line_no, format!("bad integer `-{text}`")))?;
                    toks.push(Token::Int(v.wrapping_neg()));
                    i = j;
                }
            }
            '\'' => {
                // character literal 'c' (or '\n', '\0', '\\', '\'')
                let (ch, consumed) = match bytes.get(i + 1) {
                    Some('\\') => {
                        let esc = bytes.get(i + 2).copied().unwrap_or('?');
                        let v = match esc {
                            'n' => b'\n',
                            't' => b'\t',
                            'r' => b'\r',
                            '0' => 0,
                            '\\' => b'\\',
                            '\'' => b'\'',
                            _ => return err(line_no, format!("bad escape `\\{esc}`")),
                        };
                        (v, 4)
                    }
                    Some(&c2) => (c2 as u8, 3),
                    None => return err(line_no, "unterminated character literal"),
                };
                if bytes.get(i + consumed - 1) != Some(&'\'') {
                    return err(line_no, "unterminated character literal");
                }
                toks.push(Token::Int(u64::from(ch)));
                i += consumed;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let text: String = bytes[start..j].iter().collect();
                let v = parse_int(&text)
                    .ok_or(())
                    .or_else(|()| err(line_no, format!("bad integer `{text}`")))?;
                toks.push(Token::Int(v));
                i = j;
            }
            c if c.is_ascii_alphabetic() => {
                let start = i;
                let mut j = i;
                while j < bytes.len()
                    && (bytes[j].is_ascii_alphanumeric() || bytes[j] == '_' || bytes[j] == '.')
                {
                    j += 1;
                }
                toks.push(Token::Ident(bytes[start..j].iter().collect()));
                i = j;
            }
            other => return err(line_no, format!("unexpected character `{other}`")),
        }
    }
    Ok(toks)
}

fn parse_int(text: &str) -> Option<u64> {
    let cleaned = text.replace('_', "");
    if let Some(hex) = cleaned
        .strip_prefix("0x")
        .or_else(|| cleaned.strip_prefix("0X"))
    {
        u64::from_str_radix(hex, 16).ok()
    } else {
        cleaned.parse().ok()
    }
}

struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

/// Per-function parsing state.
struct FuncCtx {
    fb: FunctionBuilder,
    regs: HashMap<String, Reg>,
}

impl FuncCtx {
    fn reg_use(&self, name: &str, line: usize) -> PResult<Reg> {
        self.regs.get(name).copied().ok_or(ParseError {
            line,
            msg: format!("use of undefined register `{name}`"),
        })
    }

    fn reg_def(&mut self, name: &str) -> Reg {
        if let Some(&r) = self.regs.get(name) {
            r
        } else {
            let r = self.fb.fresh();
            self.regs.insert(name.to_string(), r);
            r
        }
    }

    fn operand(&self, tok: &Token, line: usize) -> PResult<Operand> {
        match tok {
            Token::Int(v) => Ok(Operand::Imm(*v)),
            Token::Ident(name) => Ok(Operand::Reg(self.reg_use(name, line)?)),
            _ => err(line, "expected register or integer operand"),
        }
    }
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            lines: src.lines().enumerate(),
        }
    }

    /// Next non-empty, non-comment line, with its 1-based number.
    fn next_meaningful_line(&mut self) -> Option<(usize, &'a str)> {
        for (idx, line) in self.lines.by_ref() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with(';') {
                continue;
            }
            return Some((idx + 1, line));
        }
        None
    }

    fn parse_function(
        &mut self,
        header: &[Token],
        header_line: usize,
        pb: &mut ProgramBuilder,
    ) -> PResult<()> {
        // func NAME ( params ) {
        let name = match header.get(1) {
            Some(Token::Ident(n)) => n.clone(),
            _ => return err(header_line, "expected function name after `func`"),
        };
        let mut params = Vec::new();
        let mut i = 2;
        if header.get(i) != Some(&Token::Punct('(')) {
            return err(header_line, "expected `(` after function name");
        }
        i += 1;
        while header.get(i) != Some(&Token::Punct(')')) {
            match header.get(i) {
                Some(Token::Ident(p)) => params.push(p.clone()),
                _ => return err(header_line, "expected parameter name"),
            }
            i += 1;
            if header.get(i) == Some(&Token::Punct(',')) {
                i += 1;
            }
        }
        i += 1;
        if header.get(i) != Some(&Token::Punct('{')) {
            return err(header_line, "expected `{` to open function body");
        }
        // Declare before parsing the body so functions receive ids in source
        // order even when they call forward.
        let self_id = pb.declare(&name);

        let mut ctx = FuncCtx {
            fb: FunctionBuilder::new(&name, params.len() as u16),
            regs: HashMap::new(),
        };
        for (idx, p) in params.iter().enumerate() {
            ctx.regs.insert(p.clone(), Reg(idx as u16));
        }

        // Collect the body, then pre-create blocks in label-definition
        // order so block ids follow the source layout (this keeps
        // print→parse a fixed point regardless of reference order).
        let mut body: Vec<(usize, Vec<Token>)> = Vec::new();
        loop {
            let (line_no, line) = self.next_meaningful_line().ok_or(ParseError {
                line: header_line,
                msg: format!("function `{name}` not closed with `}}`"),
            })?;
            let toks = tokenize(line, line_no)?;
            if toks == [Token::Punct('}')] {
                break;
            }
            body.push((line_no, toks));
        }
        for (_, toks) in &body {
            if toks.len() == 2 && matches!(toks[0], Token::Ident(_)) && toks[1] == Token::Punct(':')
            {
                ctx.fb.block(toks[0].text());
            }
            // Pre-create registers in definition order, mirroring the block
            // pre-pass: a use may then textually precede its definition (the
            // canonical printer reorders blocks), while names with no
            // definition anywhere still fail in `reg_use`.
            if toks.len() >= 2 && matches!(toks[0], Token::Ident(_)) && toks[1] == Token::Punct('=')
            {
                ctx.reg_def(toks[0].text());
            }
        }
        for (line_no, toks) in body {
            // Label line: `ident :`
            if toks.len() == 2 && matches!(toks[0], Token::Ident(_)) && toks[1] == Token::Punct(':')
            {
                let id = ctx.fb.block(toks[0].text());
                ctx.fb.select(id);
                continue;
            }
            parse_statement(&toks, line_no, &mut ctx, pb)?;
        }
        let func = ctx.fb.finish().map_err(|e| ParseError {
            line: header_line,
            msg: e.0,
        })?;
        pb.define(self_id, func).map_err(|e| ParseError {
            line: header_line,
            msg: e.0,
        })?;
        Ok(())
    }
}

/// Parses one statement (instruction or terminator) into the current block.
fn parse_statement(
    toks: &[Token],
    line: usize,
    ctx: &mut FuncCtx,
    pb: &mut ProgramBuilder,
) -> PResult<()> {
    // dst = rhs...
    if toks.len() >= 2 && matches!(toks[0], Token::Ident(_)) && toks[1] == Token::Punct('=') {
        let dst_name = toks[0].text().to_string();
        return parse_assignment(&dst_name, &toks[2..], line, ctx, pb);
    }
    let head = match toks.first() {
        Some(Token::Ident(h)) => h.as_str(),
        _ => return err(line, "expected instruction"),
    };
    let rest = &toks[1..];
    match head {
        "jmp" => {
            let target = ident_at(rest, 0, line)?;
            let b = ctx.fb.block(&target);
            ctx.fb.terminate(Terminator::Jmp(b));
        }
        "br" => {
            // br cond, L1, L2
            let parts = split_commas(rest);
            if parts.len() != 3 {
                return err(line, "br expects `br cond, then, else`");
            }
            let cond = single_operand(&parts[0], line, ctx)?;
            let then_bb = ctx.fb.block(&single_ident(&parts[1], line)?);
            let else_bb = ctx.fb.block(&single_ident(&parts[2], line)?);
            ctx.fb.terminate(Terminator::Br {
                cond,
                then_bb,
                else_bb,
            });
        }
        "switch" => {
            parse_switch(rest, line, ctx)?;
        }
        "ijmp" => {
            let target = single_operand(rest, line, ctx)?;
            ctx.fb.terminate(Terminator::JmpIndirect { target });
        }
        "ret" => {
            let value = if rest.is_empty() {
                None
            } else {
                Some(single_operand(rest, line, ctx)?)
            };
            ctx.fb.terminate(Terminator::Ret(value));
        }
        "halt" => {
            let code = single_operand(rest, line, ctx)?;
            ctx.fb.terminate(Terminator::Halt { code });
        }
        "trap" => {
            let code = match rest.first() {
                Some(Token::Int(v)) => *v,
                None => 0,
                _ => return err(line, "trap expects an integer code"),
            };
            ctx.fb.emit(Inst::Trap { code });
        }
        "nop" => ctx.fb.emit(Inst::Nop),
        "call" => {
            let (callee, args) = parse_call_tail(rest, line, ctx, pb)?;
            ctx.fb.emit(Inst::Call {
                dst: None,
                callee,
                args,
            });
        }
        "icall" => {
            let (target, args) = parse_icall_tail(rest, line, ctx)?;
            ctx.fb.emit(Inst::CallIndirect {
                dst: None,
                target,
                args,
            });
        }
        "seek" => {
            let parts = split_commas(rest);
            if parts.len() != 2 {
                return err(line, "seek expects `seek fd, pos`");
            }
            let fd = single_operand(&parts[0], line, ctx)?;
            let pos = single_operand(&parts[1], line, ctx)?;
            ctx.fb.emit(Inst::FileSeek { fd, pos });
        }
        other if other.starts_with("store.") => {
            let width = parse_width(other, "store.", line)?;
            // store.W addr [+ off], value
            let parts = split_commas(rest);
            if parts.len() != 2 {
                return err(line, "store expects `store.W addr [+ off], value`");
            }
            let (addr, offset) = parse_addr(&parts[0], line, ctx)?;
            let src = single_operand(&parts[1], line, ctx)?;
            ctx.fb.emit(Inst::Store {
                addr,
                offset,
                src,
                width,
            });
        }
        other => return err(line, format!("unknown instruction `{other}`")),
    }
    Ok(())
}

fn parse_assignment(
    dst_name: &str,
    rhs: &[Token],
    line: usize,
    ctx: &mut FuncCtx,
    pb: &mut ProgramBuilder,
) -> PResult<()> {
    // Evaluate RHS first so uses of the old value of `dst` resolve before
    // (re)defining it: `x = add x, 1` works.
    let inst = match rhs {
        [Token::Int(v)] => {
            let dst = ctx.reg_def(dst_name);
            Inst::Const { dst, value: *v }
        }
        [Token::Ident(name)] if name == "open" => {
            let dst = ctx.reg_def(dst_name);
            Inst::FileOpen { dst }
        }
        [Token::Ident(src_name)] if !is_keyword(src_name) => {
            let src = ctx.reg_use(src_name, line)?;
            let dst = ctx.reg_def(dst_name);
            Inst::Move {
                dst,
                src: Operand::Reg(src),
            }
        }
        [Token::Ident(op), rest @ ..] => {
            return parse_op_assignment(dst_name, op, rest, line, ctx, pb)
        }
        _ => return err(line, "malformed assignment"),
    };
    ctx.fb.emit(inst);
    Ok(())
}

fn parse_op_assignment(
    dst_name: &str,
    op: &str,
    rest: &[Token],
    line: usize,
    ctx: &mut FuncCtx,
    pb: &mut ProgramBuilder,
) -> PResult<()> {
    if let Some(binop) = BinOp::from_mnemonic(op) {
        let parts = split_commas(rest);
        if parts.len() != 2 {
            return err(line, format!("`{op}` expects two operands"));
        }
        let lhs = single_operand(&parts[0], line, ctx)?;
        let rhs = single_operand(&parts[1], line, ctx)?;
        let dst = ctx.reg_def(dst_name);
        ctx.fb.emit(Inst::Bin {
            dst,
            op: binop,
            lhs,
            rhs,
        });
        return Ok(());
    }
    match op {
        "not" | "neg" => {
            let src = single_operand(rest, line, ctx)?;
            let unop = if op == "not" { UnOp::Not } else { UnOp::Neg };
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::Un { dst, op: unop, src });
        }
        _ if op.starts_with("cadd.") || op.starts_with("csub.") || op.starts_with("cmul.") => {
            let (checked, prefix) = match &op[..4] {
                "cadd" => (CheckedOp::Add, "cadd."),
                "csub" => (CheckedOp::Sub, "csub."),
                _ => (CheckedOp::Mul, "cmul."),
            };
            let width = parse_width(op, prefix, line)?;
            let parts = split_commas(rest);
            if parts.len() != 2 {
                return err(line, format!("`{op}` expects two operands"));
            }
            let lhs = single_operand(&parts[0], line, ctx)?;
            let rhs = single_operand(&parts[1], line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::CheckedBin {
                dst,
                op: checked,
                width,
                lhs,
                rhs,
            });
        }
        _ if op.starts_with("load.") => {
            let width = parse_width(op, "load.", line)?;
            let (addr, offset) = parse_addr(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::Load {
                dst,
                addr,
                offset,
                width,
            });
        }
        "alloc" | "salloc" => {
            let size = single_operand(rest, line, ctx)?;
            let region = if op == "alloc" {
                RegionKind::Heap
            } else {
                RegionKind::Stack
            };
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::Alloc { dst, size, region });
        }
        "call" => {
            let (callee, args) = parse_call_tail(rest, line, ctx, pb)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::Call {
                dst: Some(dst),
                callee,
                args,
            });
        }
        "icall" => {
            let (target, args) = parse_icall_tail(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::CallIndirect {
                dst: Some(dst),
                target,
                args,
            });
        }
        "faddr" => {
            let fname = ident_at(rest, 0, line)?;
            let func = pb.declare(&fname);
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::FuncAddr { dst, func });
        }
        "baddr" => {
            let label = ident_at(rest, 0, line)?;
            let block = ctx.fb.block(&label);
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::BlockAddr { dst, block });
        }
        "read" => {
            let parts = split_commas(rest);
            if parts.len() != 3 {
                return err(line, "read expects `read fd, buf, len`");
            }
            let fd = single_operand(&parts[0], line, ctx)?;
            let buf = single_operand(&parts[1], line, ctx)?;
            let len = single_operand(&parts[2], line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::FileRead { dst, fd, buf, len });
        }
        "getc" => {
            let fd = single_operand(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::FileGetc { dst, fd });
        }
        "tell" => {
            let fd = single_operand(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::FileTell { dst, fd });
        }
        "fsize" => {
            let fd = single_operand(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::FileSize { dst, fd });
        }
        "mmap" => {
            let fd = single_operand(rest, line, ctx)?;
            let dst = ctx.reg_def(dst_name);
            ctx.fb.emit(Inst::MemMap { dst, fd });
        }
        other => return err(line, format!("unknown operation `{other}`")),
    }
    Ok(())
}

fn parse_switch(rest: &[Token], line: usize, ctx: &mut FuncCtx) -> PResult<()> {
    // switch x { 1 -> a, 2 -> b, _ -> d }
    let brace = rest
        .iter()
        .position(|t| *t == Token::Punct('{'))
        .ok_or(ParseError {
            line,
            msg: "switch expects `{ ... }`".into(),
        })?;
    let scrut = single_operand(&rest[..brace], line, ctx)?;
    let close = rest
        .iter()
        .position(|t| *t == Token::Punct('}'))
        .ok_or(ParseError {
            line,
            msg: "switch not closed with `}`".into(),
        })?;
    let body = &rest[brace + 1..close];
    let mut cases = Vec::new();
    let mut default = None;
    for arm in split_commas(body) {
        // INT -> label   or   _ -> label
        if arm.len() != 3 || arm[1] != Token::Arrow {
            return err(line, "switch arm must be `value -> label`");
        }
        let target = match &arm[2] {
            Token::Ident(l) => ctx.fb.block(l),
            _ => return err(line, "switch arm target must be a label"),
        };
        match &arm[0] {
            Token::Int(v) => cases.push((*v, target)),
            Token::Punct('_') => default = Some(target),
            _ => return err(line, "switch arm value must be an integer or `_`"),
        }
    }
    let default = default.ok_or(ParseError {
        line,
        msg: "switch requires a `_ -> label` default arm".into(),
    })?;
    ctx.fb.terminate(Terminator::Switch {
        scrut,
        cases,
        default,
    });
    Ok(())
}

/// Parses `f(a, b, ...)`.
fn parse_call_tail(
    rest: &[Token],
    line: usize,
    ctx: &mut FuncCtx,
    pb: &mut ProgramBuilder,
) -> PResult<(crate::types::FuncId, Vec<Operand>)> {
    let fname = ident_at(rest, 0, line)?;
    let args = parse_arg_list(&rest[1..], line, ctx)?;
    Ok((pb.declare(&fname), args))
}

/// Parses `t(a, b, ...)` where `t` is an operand (function address).
fn parse_icall_tail(
    rest: &[Token],
    line: usize,
    ctx: &mut FuncCtx,
) -> PResult<(Operand, Vec<Operand>)> {
    if rest.is_empty() {
        return err(line, "icall expects a target");
    }
    let target = ctx.operand(&rest[0], line)?;
    let args = parse_arg_list(&rest[1..], line, ctx)?;
    Ok((target, args))
}

fn parse_arg_list(toks: &[Token], line: usize, ctx: &FuncCtx) -> PResult<Vec<Operand>> {
    if toks.first() != Some(&Token::Punct('(')) {
        return err(line, "expected `(` argument list");
    }
    if toks.last() != Some(&Token::Punct(')')) {
        return err(line, "argument list not closed with `)`");
    }
    let inner = &toks[1..toks.len() - 1];
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    split_commas(inner)
        .iter()
        .map(|part| single_operand(part, line, ctx))
        .collect()
}

/// Parses `addr` or `addr + offset`.
fn parse_addr(toks: &[Token], line: usize, ctx: &FuncCtx) -> PResult<(Operand, u64)> {
    match toks {
        [a] => Ok((ctx.operand(a, line)?, 0)),
        [a, Token::Punct('+'), Token::Int(off)] => Ok((ctx.operand(a, line)?, *off)),
        _ => err(line, "expected `addr` or `addr + offset`"),
    }
}

fn split_commas(toks: &[Token]) -> Vec<Vec<Token>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0usize;
    for t in toks {
        match t {
            Token::Punct('(') | Token::Punct('{') => {
                depth += 1;
                parts.last_mut().expect("nonempty").push(t.clone());
            }
            Token::Punct(')') | Token::Punct('}') => {
                depth = depth.saturating_sub(1);
                parts.last_mut().expect("nonempty").push(t.clone());
            }
            Token::Punct(',') if depth == 0 => parts.push(Vec::new()),
            _ => parts.last_mut().expect("nonempty").push(t.clone()),
        }
    }
    parts
}

fn single_operand(toks: &[Token], line: usize, ctx: &FuncCtx) -> PResult<Operand> {
    match toks {
        [t] => ctx.operand(t, line),
        _ => err(line, "expected a single operand"),
    }
}

fn single_ident(toks: &[Token], line: usize) -> PResult<String> {
    match toks {
        [Token::Ident(s)] => Ok(s.clone()),
        _ => err(line, "expected an identifier"),
    }
}

fn ident_at(toks: &[Token], idx: usize, line: usize) -> PResult<String> {
    match toks.get(idx) {
        Some(Token::Ident(s)) => Ok(s.clone()),
        _ => err(line, "expected an identifier"),
    }
}

fn parse_width(op: &str, prefix: &str, line: usize) -> PResult<Width> {
    let suffix = op.strip_prefix(prefix).unwrap_or_default();
    suffix
        .parse::<u64>()
        .ok()
        .and_then(Width::from_bytes)
        .ok_or(ParseError {
            line,
            msg: format!("bad width suffix in `{op}` (expected .1/.2/.4/.8)"),
        })
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "open"
            | "call"
            | "icall"
            | "read"
            | "getc"
            | "tell"
            | "seek"
            | "fsize"
            | "mmap"
            | "alloc"
            | "salloc"
            | "faddr"
            | "baddr"
            | "not"
            | "neg"
            | "trap"
            | "nop"
    ) || BinOp::from_mnemonic(s).is_some()
        || s.starts_with("load.")
        || s.starts_with("store.")
        || s.starts_with("cadd.")
        || s.starts_with("csub.")
        || s.starts_with("cmul.")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FuncId;

    #[test]
    fn parse_minimal_program() {
        let p = parse_program("func main() {\nentry:\n ret 0\n}\n").unwrap();
        assert_eq!(p.function_count(), 1);
        let main = p.func(p.entry());
        assert_eq!(main.blocks.len(), 1);
        assert_eq!(main.blocks[0].term, Terminator::Ret(Some(Operand::Imm(0))));
    }

    #[test]
    fn parse_valid_program_reports_parse_then_validation_errors() {
        assert!(parse_valid_program("func main() {\nentry:\n ret 0\n}\n").is_ok());
        let parse = parse_valid_program("not a program").unwrap_err();
        assert!(parse.starts_with("line 1: expected `func`"), "{parse}");
        let invalid = parse_valid_program("func main(a) {\nentry:\n ret a\n}\n").unwrap_err();
        assert_eq!(invalid, "main: entry function must take no parameters");
    }

    #[test]
    fn parse_arith_and_branches() {
        let src = r#"
; a tiny branching function
func main() {
entry:
    x = 10
    y = add x, 0x20
    c = ult y, 100
    br c, small, big
small:
    ret 1
big:
    halt 2
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        assert_eq!(f.blocks.len(), 3);
        assert_eq!(f.blocks[0].insts.len(), 3);
        assert!(matches!(f.blocks[0].term, Terminator::Br { .. }));
        assert!(matches!(f.blocks[2].term, Terminator::Halt { .. }));
    }

    #[test]
    fn parse_memory_and_file_ops() {
        let src = r#"
func main() {
entry:
    fd = open
    buf = alloc 64
    n = read fd, buf, 64
    b = getc fd
    pos = tell fd
    sz = fsize fd
    seek fd, 0
    base = mmap fd
    v = load.4 buf + 8
    store.2 buf + 2, v
    stk = salloc 16
    ret n
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        assert_eq!(f.blocks[0].insts.len(), 11);
        assert!(matches!(
            f.blocks[0].insts[8],
            Inst::Load {
                offset: 8,
                width: Width::W4,
                ..
            }
        ));
        assert!(matches!(
            f.blocks[0].insts[10],
            Inst::Alloc {
                region: RegionKind::Stack,
                ..
            }
        ));
    }

    #[test]
    fn parse_calls_and_forward_reference() {
        let src = r#"
func main() {
entry:
    r = call helper(1, 2)
    call helper(r, r)
    f = faddr helper
    s = icall f(3, 4)
    ret s
}

func helper(a, b) {
entry:
    x = add a, b
    ret x
}
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.function_count(), 2);
        assert_eq!(p.func_by_name("helper"), Some(FuncId(1)));
    }

    #[test]
    fn parse_switch_and_indirect_jump() {
        let src = r#"
func main() {
entry:
    x = 2
    switch x { 1 -> one, 2 -> two, _ -> done }
one:
    t = baddr done
    ijmp t
two:
    jmp done
done:
    ret 0
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        assert!(
            matches!(f.blocks[0].term, Terminator::Switch { ref cases, .. } if cases.len() == 2)
        );
        assert!(matches!(f.blocks[1].term, Terminator::JmpIndirect { .. }));
    }

    #[test]
    fn char_literals_and_checked_math() {
        let src = r#"
func main() {
entry:
    g = 'G'
    nl = '\n'
    z = cmul.4 g, nl
    t = csub.2 z, 1
    ret t
}
"#;
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        assert_eq!(
            f.blocks[0].insts[0],
            Inst::Const {
                dst: Reg(0),
                value: u64::from(b'G')
            }
        );
    }

    #[test]
    fn undefined_register_is_an_error() {
        let e = parse_program("func main() {\nentry:\n x = add ghost, 1\n ret x\n}\n").unwrap_err();
        assert!(e.msg.contains("undefined register"), "{e}");
        assert_eq!(e.line, 3);
    }

    #[test]
    fn use_before_textual_definition_is_allowed() {
        // The canonical printer may order a using block before the defining
        // one; the register pre-pass makes that parseable. `x` is defined in
        // `late`, used in `early` which appears first.
        let src = "func main() {\n\
                   entry:\n c = 1\n br c, early, late\n\
                   early:\n y = add x, 1\n ret y\n\
                   late:\n x = 7\n ret x\n}\n";
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        // Ids follow definition-statement order: `c` (r0), `y` (r1), `x` (r2).
        assert_eq!(f.blocks[1].insts[0].def(), Some(Reg(1)));
        assert_eq!(f.blocks[1].insts[0].uses(), vec![Reg(2)]);
        assert_eq!(f.blocks[2].insts[0].def(), Some(Reg(2)));
    }

    #[test]
    fn unclosed_function_is_an_error() {
        let e = parse_program("func main() {\nentry:\n ret 0\n").unwrap_err();
        assert!(e.msg.contains("not closed"), "{e}");
    }

    #[test]
    fn missing_entry_is_an_error() {
        let e = parse_program("func helper() {\nentry:\n ret 0\n}\n").unwrap_err();
        assert!(e.msg.contains("entry function"), "{e}");
    }

    #[test]
    fn trap_and_negative_literals() {
        let src = "func main() {\nentry:\n x = -1\n trap 7\n ret x\n}\n";
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        assert_eq!(
            f.blocks[0].insts[0],
            Inst::Const {
                dst: Reg(0),
                value: u64::MAX
            }
        );
        assert_eq!(f.blocks[0].insts[1], Inst::Trap { code: 7 });
    }

    #[test]
    fn reassignment_reads_old_value() {
        let src = "func main() {\nentry:\n x = 1\n x = add x, 1\n ret x\n}\n";
        let p = parse_program(src).unwrap();
        let f = p.func(p.entry());
        // Both the const and the add target the same register.
        let d0 = f.blocks[0].insts[0].def();
        let d1 = f.blocks[0].insts[1].def();
        assert_eq!(d0, d1);
    }
}
