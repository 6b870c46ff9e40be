//! Parser for the textual IR form produced by the printer.
//!
//! Round-trips with [`Display`](std::fmt::Display): `parse(&f.to_string())`
//! reconstructs an equivalent function. Useful for golden tests and for
//! writing kernels as text.
//!
//! ```
//! use darm_ir::parser::parse_function;
//!
//! let f = parse_function(r#"
//! fn @axpy(ptr(global) %arg0, i32 %arg1) -> void {
//! entry:
//!   %0 = tid.x
//!   %1 = mul %0, %arg1
//!   %2 = gep i32 %arg0, %0
//!   store %1, %2
//!   ret
//! }
//! "#).unwrap();
//! assert_eq!(f.name(), "axpy");
//! assert!(f.verify_structure().is_ok());
//! ```
//!
//! # How the text is read
//!
//! The input is walked once. [`parse_module`] cuts it into functions as it
//! goes and hands each one its significant lines — trimmed, with blank and
//! `//` comment lines dropped — as `&str` slices of the input; nothing is
//! copied or re-joined. Within a function, a scan of those lines declares
//! the shared arrays and creates the blocks in label order (a branch may
//! name a later block), then one pass over them builds the instructions in
//! text order, so instruction ids follow the text.
//!
//! Tokens, labels and value names stay borrowed slices of the input, and
//! the label and value-name tables are keyed by them. Their memory is
//! O(input) whatever the names spell: `%4000000000` is just a key. (Names
//! in the printer's `%N` form index a dense table bounded by the line
//! count instead of being hashed.) Error messages are built only when
//! parsing fails.
//!
//! **Forward references.** An operand naming a value whose definition has
//! already been parsed is resolved when its instruction is created. Only
//! uses that come before their definition in the text — φ back-edge
//! values, and uses in a block printed before the defining block — are
//! recorded and patched once the function's last line is read; a name that
//! is still undefined then is an error at the use's line. Value names are
//! unique within a function, and `%argN` must name a declared parameter.
//!
//! Result types that depend on operands (binary ops, `select`, `gep`) are
//! placeholders until [`fixup_types`] runs; [`parse_and_verify`] and
//! [`parse_and_verify_module`] run it.

use crate::function::{BlockId, Function, InstData, InstId, SharedArray};
use crate::module::Module;
use crate::opcode::{Dim, FcmpPred, IcmpPred, Opcode};
use crate::types::{AddrSpace, Type};
use crate::value::Value;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A parse failure, with a line number and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl Error for ParseError {}

fn perr(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// [`str::trim`], with a fast path for the ASCII whitespace the printer
/// writes: the full Unicode trim runs only when what is left at either end
/// may still be whitespace to it (a non-ASCII byte, or the vertical tab,
/// which `trim_ascii` keeps).
fn trim(s: &str) -> &str {
    let t = s.trim_ascii();
    let maybe_space = |b: &u8| !b.is_ascii() || *b == b'\x0b';
    if t.as_bytes().first().is_some_and(maybe_space) || t.as_bytes().last().is_some_and(maybe_space)
    {
        t.trim()
    } else {
        t
    }
}

/// `s.split_once(b)` for an ASCII byte `b`, as a plain byte scan: on the
/// short lines and tokens of IR text it beats `str`'s memchr-based search.
fn split_at_byte(s: &str, b: u8) -> Option<(&str, &str)> {
    let i = s.bytes().position(|c| c == b)?;
    Some((&s[..i], &s[i + 1..]))
}

/// A significant input line: its 1-based number and trimmed text.
type Line<'a> = (usize, &'a str);

/// The significant lines of `text`: its lines (split at `\n`, like
/// [`str::lines`]), trimmed, with blank and `//` comment lines dropped.
fn significant_lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let s = rest?;
        let (raw, tail) = split_at_byte(s, b'\n').map_or((s, None), |(l, t)| (l, Some(t)));
        rest = tail;
        Some(raw)
    })
    .enumerate()
    .filter_map(|(i, raw)| {
        let l = trim(raw);
        (!l.is_empty() && !l.starts_with("//")).then_some((i + 1, l))
    })
}

fn parse_type(s: &str, line: usize) -> Result<Type, ParseError> {
    match s {
        "void" => Ok(Type::Void),
        "i1" => Ok(Type::I1),
        "i32" => Ok(Type::I32),
        "i64" => Ok(Type::I64),
        "f32" => Ok(Type::F32),
        "ptr(global)" => Ok(Type::Ptr(AddrSpace::Global)),
        "ptr(shared)" => Ok(Type::Ptr(AddrSpace::Shared)),
        _ => Err(perr(line, format!("unknown type `{s}`"))),
    }
}

/// Parses a value token. `Ok(None)` is a `%name` not defined yet — a
/// forward reference for the caller to record.
fn parse_value(
    tok: &str,
    names: &Names<'_>,
    params: usize,
    line: usize,
) -> Result<Option<Value>, ParseError> {
    if let Some(rest) = tok.strip_prefix("%arg") {
        return match rest.parse::<u32>() {
            Ok(i) if (i as usize) < params => Ok(Some(Value::Param(i))),
            _ => Err(perr(line, format!("bad parameter `{tok}`"))),
        };
    }
    if tok.starts_with('%') {
        return Ok(names.get(tok).map(Value::Inst));
    }
    let v = match tok {
        "true" => Value::I1(true),
        "false" => Value::I1(false),
        _ => {
            if let Some(rest) = tok.strip_prefix("undef:") {
                Value::Undef(parse_type(rest, line)?)
            } else if let Some(x) = tok.strip_suffix("i64").and_then(|r| r.parse().ok()) {
                Value::I64(x)
            } else if let Some(x) = tok.strip_suffix('f').and_then(|r| r.parse().ok()) {
                Value::const_f32(x)
            } else if let Ok(x) = tok.parse() {
                Value::I32(x)
            } else {
                return Err(perr(line, format!("cannot parse value `{tok}`")));
            }
        }
    };
    Ok(Some(v))
}

fn parse_icmp_pred(s: &str, line: usize) -> Result<IcmpPred, ParseError> {
    use IcmpPred::*;
    Ok(match s {
        "eq" => Eq,
        "ne" => Ne,
        "slt" => Slt,
        "sle" => Sle,
        "sgt" => Sgt,
        "sge" => Sge,
        "ult" => Ult,
        "ule" => Ule,
        "ugt" => Ugt,
        "uge" => Uge,
        _ => return Err(perr(line, format!("unknown icmp predicate `{s}`"))),
    })
}

fn parse_fcmp_pred(s: &str, line: usize) -> Result<FcmpPred, ParseError> {
    use FcmpPred::*;
    Ok(match s {
        "oeq" => Oeq,
        "one" => One,
        "olt" => Olt,
        "ole" => Ole,
        "ogt" => Ogt,
        "oge" => Oge,
        _ => return Err(perr(line, format!("unknown fcmp predicate `{s}`"))),
    })
}

fn parse_dim(s: &str, line: usize) -> Result<Dim, ParseError> {
    match s {
        "x" => Ok(Dim::X),
        "y" => Ok(Dim::Y),
        _ => Err(perr(line, format!("unknown dimension `{s}`"))),
    }
}

/// Splits an operand list on top-level commas into `out`, trimmed (commas
/// inside `[...]` belong to φ entries). An empty last operand is dropped;
/// empty inner ones are kept for the value parser to reject.
fn split_operands<'a>(s: &'a str, out: &mut Vec<&'a str>) {
    out.clear();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        match b {
            b'[' => depth += 1,
            b']' => depth -= 1,
            b',' if depth == 0 => {
                out.push(trim(&s[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    let last = trim(&s[start..]);
    if !last.is_empty() {
        out.push(last);
    }
}

/// Parses a header `fn @name(TYPE %argN, ...) -> TYPE {` into the name,
/// parameter types and return type.
fn parse_header(header: &str, line: usize) -> Result<(&str, Vec<Type>, Type), ParseError> {
    let header = header
        .strip_prefix("fn @")
        .ok_or_else(|| perr(line, "expected `fn @name(...)`"))?;
    let open = header.find('(').ok_or_else(|| perr(line, "expected `(`"))?;
    let close = header
        .rfind(')')
        .ok_or_else(|| perr(line, "expected `)`"))?;
    if close < open {
        return Err(perr(line, "expected `)` after `(`"));
    }
    let ret_src = header[close + 1..]
        .trim()
        .strip_prefix("->")
        .and_then(|r| r.trim().strip_suffix('{'))
        .ok_or_else(|| perr(line, "expected `-> TYPE {`"))?;
    let ret = parse_type(ret_src.trim(), line)?;
    let mut params = Vec::new();
    for (k, p) in header[open + 1..close]
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .enumerate()
    {
        let (ty_src, _) = p
            .trim()
            .rsplit_once(' ')
            .ok_or_else(|| perr(line, format!("bad parameter {k}")))?;
        params.push(parse_type(ty_src.trim(), line)?);
    }
    Ok((&header[..open], params, ret))
}

/// Parses `shared NAME : [LEN x TYPE]` (after the `shared ` keyword).
fn parse_shared(decl: &str, line: usize) -> Result<SharedArray, ParseError> {
    let bad = || perr(line, "bad shared declaration");
    let (name, rest) = decl.split_once(':').ok_or_else(bad)?;
    let (len_src, ty_src) = rest
        .trim()
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .and_then(|r| r.split_once(" x "))
        .ok_or_else(bad)?;
    let len = len_src
        .trim()
        .parse()
        .map_err(|_| perr(line, "bad shared length"))?;
    Ok(SharedArray {
        name: name.trim().to_string(),
        elem: parse_type(ty_src.trim(), line)?,
        len,
    })
}

/// Splits `%name = BODY` into the result name and body; any other line is
/// all body.
fn split_result(l: &str) -> (Option<&str>, &str) {
    if l.starts_with('%') {
        if let Some((lhs, rhs)) = split_at_byte(l, b'=') {
            let lhs = lhs.trim_end();
            if !lhs.contains(' ') {
                return (Some(lhs), trim(rhs));
            }
        }
    }
    (None, l)
}

/// Value name → defining instruction, keyed by the name token. The printer
/// names values `%N`: a name in that form (decimal, no leading zero) with
/// N below a limit proportional to the function's line count indexes a
/// dense table instead of being hashed. Any other name — `%x`, `%007`,
/// `%4000000000` — goes to a map. Either way the size is O(input).
#[derive(Default)]
struct Names<'a> {
    dense: Vec<Option<InstId>>,
    dense_limit: usize,
    map: HashMap<&'a str, InstId>,
}

impl<'a> Names<'a> {
    /// Empties the table for a function of `lines` lines.
    fn reset(&mut self, lines: usize) {
        self.dense.clear();
        self.map.clear();
        self.dense_limit = 4 * lines + 64;
    }

    /// The dense-table slot of `name`, if it has one.
    fn slot(&self, name: &str) -> Option<usize> {
        let digits = name.strip_prefix('%')?;
        if digits.is_empty() || digits.len() > 9 || (digits.len() > 1 && digits.starts_with('0')) {
            return None;
        }
        let mut n = 0;
        for b in digits.bytes() {
            if !b.is_ascii_digit() {
                return None;
            }
            n = n * 10 + usize::from(b - b'0');
        }
        (n < self.dense_limit).then_some(n)
    }

    fn get(&self, name: &str) -> Option<InstId> {
        match self.slot(name) {
            Some(n) => self.dense.get(n).copied().flatten(),
            None => self.map.get(name).copied(),
        }
    }

    /// Defines `name`; `false` if it was already defined.
    fn insert(&mut self, name: &'a str, id: InstId) -> bool {
        match self.slot(name) {
            Some(n) => {
                if n >= self.dense.len() {
                    self.dense.resize(n + 1, None);
                }
                self.dense[n].replace(id).is_none()
            }
            None => self.map.insert(name, id).is_none(),
        }
    }
}

/// Each block's label and instruction list, in creation order.
type Blocks<'a> = Vec<(&'a str, Vec<InstId>)>;

/// The tables of the function being parsed. A module parse reuses one
/// parser for all its functions, so the tables' allocations are reused.
#[derive(Default)]
struct FnParser<'a> {
    /// Block label → block.
    blocks: HashMap<&'a str, BlockId>,
    /// Value name → defining instruction.
    names: Names<'a>,
    /// Uses parsed before their definition: (user, operand slot, name, line).
    forward: Vec<(InstId, usize, &'a str, usize)>,
    /// Operand tokens of the instruction being parsed.
    toks: Vec<&'a str>,
}

impl<'a> FnParser<'a> {
    /// Parses one function from its significant lines: the header, then
    /// the body. `}` lines are skipped wherever they appear.
    fn function(&mut self, lines: &[Line<'a>]) -> Result<Function, ParseError> {
        self.blocks.clear();
        self.names.reset(lines.len());
        self.forward.clear();
        let (&(hline, header), body) = lines.split_first().ok_or_else(|| perr(0, "empty input"))?;
        let (name, params, ret) = parse_header(header, hline)?;
        let mut shared = Vec::new();
        let mut blocks = self.declare(body, &mut shared)?;
        if blocks.is_empty() {
            blocks.push(("entry", Vec::new()));
        }

        let mut insts: Vec<InstData> = Vec::with_capacity(body.len());
        let mut cur = None;
        let mut labels_seen = 0;
        for &(line, l) in body {
            if l == "}" || l.starts_with("shared ") {
                continue;
            }
            if l.ends_with(':') {
                // `declare` created the blocks in this same label order.
                cur = Some(BlockId::new(labels_seen));
                labels_seen += 1;
                continue;
            }
            let block = cur.ok_or_else(|| perr(line, "instruction before any block label"))?;
            let (result, text) = split_result(l);
            let id = InstId::new(insts.len());
            let mut inst = self.inst(text, id, params.len(), shared.len(), line)?;
            inst.block = block;
            insts.push(inst);
            blocks[block.index()].1.push(id);
            if let Some(name) = result {
                if !self.names.insert(name, id) {
                    return Err(perr(line, format!("duplicate value `{name}`")));
                }
            }
        }

        for &(id, slot, name, line) in &self.forward {
            let def = self
                .names
                .get(name)
                .ok_or_else(|| perr(line, format!("undefined value `{name}`")))?;
            insts[id.index()].operands[slot] = Value::Inst(def);
        }
        Ok(Function::from_parts(
            name, params, ret, shared, blocks, insts,
        ))
    }

    /// Declares the shared arrays and creates the blocks in label order,
    /// each with its label and an instruction list sized for the lines up
    /// to the next label.
    fn declare(
        &mut self,
        body: &[Line<'a>],
        shared: &mut Vec<SharedArray>,
    ) -> Result<Blocks<'a>, ParseError> {
        let mut blocks = Vec::new();
        for &(line, l) in body {
            if let Some(decl) = l.strip_prefix("shared ") {
                shared.push(parse_shared(decl, line)?);
            } else if let Some(label) = l.strip_suffix(':') {
                let id = BlockId::new(blocks.len());
                if self.blocks.insert(label, id).is_some() {
                    return Err(perr(line, format!("duplicate block label `{label}`")));
                }
                blocks.push((label, 0));
            } else if let Some((_, n)) = blocks.last_mut() {
                *n += 1;
            }
        }
        Ok(blocks
            .into_iter()
            .map(|(label, n)| (label, Vec::with_capacity(n)))
            .collect())
    }

    fn block(&self, label: &str, line: usize) -> Result<BlockId, ParseError> {
        self.blocks
            .get(label)
            .copied()
            .ok_or_else(|| perr(line, format!("unknown block `{label}`")))
    }

    /// Parses the body (after any `%name =`) of instruction `id` into its
    /// data, operands resolved, in a function of `params` parameters and
    /// `shared` shared arrays.
    fn inst(
        &mut self,
        text: &'a str,
        id: InstId,
        params: usize,
        shared: usize,
        line: usize,
    ) -> Result<InstData, ParseError> {
        let (mnemonic, rest) = split_at_byte(text, b' ').unwrap_or((text, ""));
        let rest = trim(rest);
        self.toks.clear();
        let mut succs = Vec::new();
        let mut phi_blocks = Vec::new();
        // Most frequent mnemonics (in the paper's kernel suite) first: a
        // `match` on strings tests its arms in order.
        let (opcode, ty) = match mnemonic {
            "jump" => {
                succs = vec![self.block(rest, line)?];
                (Opcode::Jump, Type::Void)
            }
            "add" => self.fixed(Opcode::Add, mnemonic, rest, line)?,
            "icmp" => {
                let (p, v) = split_at_byte(rest, b' ')
                    .ok_or_else(|| perr(line, "icmp expects a predicate"))?;
                let pred = parse_icmp_pred(p, line)?;
                split_operands(v, &mut self.toks);
                (Opcode::Icmp(pred), Type::I1)
            }
            "br" => {
                split_operands(rest, &mut self.toks);
                if self.toks.len() != 3 {
                    return Err(perr(line, "br expects `cond, then, else`"));
                }
                succs.reserve_exact(2);
                succs.push(self.block(self.toks[1], line)?);
                succs.push(self.block(self.toks[2], line)?);
                self.toks.truncate(1);
                (Opcode::Br, Type::Void)
            }
            "load" => self.typed(Opcode::Load, rest, line)?,
            "store" => self.fixed(Opcode::Store, mnemonic, rest, line)?,
            "gep" => {
                let (ty_src, v) = split_at_byte(rest, b' ')
                    .ok_or_else(|| perr(line, "gep expects an element type"))?;
                let elem = parse_type(ty_src, line)?;
                split_operands(v, &mut self.toks);
                // The result type is the pointer operand's; `fixup_types`
                // sets it.
                (Opcode::Gep { elem }, Type::Ptr(AddrSpace::Global))
            }
            "mul" => self.fixed(Opcode::Mul, mnemonic, rest, line)?,
            // `phi TYPE [v, blk], [v, blk], ...`
            "phi" => {
                let (ty_src, list) =
                    split_at_byte(rest, b' ').ok_or_else(|| perr(line, "phi expects a type"))?;
                let ty = parse_type(ty_src, line)?;
                split_operands(list, &mut self.toks);
                phi_blocks.reserve_exact(self.toks.len());
                for k in 0..self.toks.len() {
                    let ent = self.toks[k];
                    let (v, blk) = ent
                        .strip_prefix('[')
                        .and_then(|e| e.strip_suffix(']'))
                        .and_then(|e| split_at_byte(e, b','))
                        .ok_or_else(|| perr(line, format!("bad phi entry `{ent}`")))?;
                    phi_blocks.push(self.block(trim(blk), line)?);
                    self.toks[k] = trim(v);
                }
                (Opcode::Phi, ty)
            }
            "ret" => {
                if !rest.is_empty() {
                    self.toks.push(rest);
                }
                (Opcode::Ret, Type::Void)
            }
            "shared.base" => {
                let idx: u32 = rest
                    .parse()
                    .map_err(|_| perr(line, "bad shared.base index"))?;
                if idx as usize >= shared {
                    return Err(perr(line, format!("shared array {idx} not declared")));
                }
                (Opcode::SharedBase(idx), Type::Ptr(AddrSpace::Shared))
            }
            "zext" => self.typed(Opcode::Zext, rest, line)?,
            "sext" => self.typed(Opcode::Sext, rest, line)?,
            "trunc" => self.typed(Opcode::Trunc, rest, line)?,
            "fptosi" => self.typed(Opcode::FpToSi, rest, line)?,
            "fcmp" => {
                let (p, v) = split_at_byte(rest, b' ')
                    .ok_or_else(|| perr(line, "fcmp expects a predicate"))?;
                let pred = parse_fcmp_pred(p, line)?;
                split_operands(v, &mut self.toks);
                (Opcode::Fcmp(pred), Type::I1)
            }
            "bar.sync" => self.fixed(Opcode::Syncthreads, mnemonic, rest, line)?,
            "and" => self.fixed(Opcode::And, mnemonic, rest, line)?,
            "sub" => self.fixed(Opcode::Sub, mnemonic, rest, line)?,
            "xor" => self.fixed(Opcode::Xor, mnemonic, rest, line)?,
            "shl" => self.fixed(Opcode::Shl, mnemonic, rest, line)?,
            "srem" => self.fixed(Opcode::SRem, mnemonic, rest, line)?,
            "ashr" => self.fixed(Opcode::AShr, mnemonic, rest, line)?,
            "or" => self.fixed(Opcode::Or, mnemonic, rest, line)?,
            "sdiv" => self.fixed(Opcode::SDiv, mnemonic, rest, line)?,
            "udiv" => self.fixed(Opcode::UDiv, mnemonic, rest, line)?,
            "urem" => self.fixed(Opcode::URem, mnemonic, rest, line)?,
            "lshr" => self.fixed(Opcode::LShr, mnemonic, rest, line)?,
            "fadd" => self.fixed(Opcode::FAdd, mnemonic, rest, line)?,
            "fsub" => self.fixed(Opcode::FSub, mnemonic, rest, line)?,
            "fmul" => self.fixed(Opcode::FMul, mnemonic, rest, line)?,
            "fdiv" => self.fixed(Opcode::FDiv, mnemonic, rest, line)?,
            "fsqrt" => self.fixed(Opcode::FSqrt, mnemonic, rest, line)?,
            "fabs" => self.fixed(Opcode::FAbs, mnemonic, rest, line)?,
            "fneg" => self.fixed(Opcode::FNeg, mnemonic, rest, line)?,
            "fexp" => self.fixed(Opcode::FExp, mnemonic, rest, line)?,
            "sitofp" => self.fixed(Opcode::SiToFp, mnemonic, rest, line)?,
            "select" => self.fixed(Opcode::Select, mnemonic, rest, line)?,
            "ballot" => self.fixed(Opcode::Ballot, mnemonic, rest, line)?,
            m => {
                let (op, dim): (fn(Dim) -> Opcode, _) = if let Some(d) = m.strip_prefix("tid.") {
                    (Opcode::ThreadIdx, d)
                } else if let Some(d) = m.strip_prefix("ctaid.") {
                    (Opcode::BlockIdx, d)
                } else if let Some(d) = m.strip_prefix("ntid.") {
                    (Opcode::BlockDim, d)
                } else if let Some(d) = m.strip_prefix("nctaid.") {
                    (Opcode::GridDim, d)
                } else {
                    return Err(perr(line, format!("unknown instruction `{m}`")));
                };
                (op(parse_dim(dim, line)?), Type::I32)
            }
        };
        Ok(InstData {
            operands: self.operands(id, params, line)?,
            phi_blocks,
            succs,
            ..InstData::new(opcode, ty, Vec::new())
        })
    }

    /// `OP TYPE operands`: the typed unary and memory forms.
    fn typed(
        &mut self,
        op: Opcode,
        rest: &'a str,
        line: usize,
    ) -> Result<(Opcode, Type), ParseError> {
        let (ty_src, v) =
            split_at_byte(rest, b' ').ok_or_else(|| perr(line, format!("{op} expects a type")))?;
        split_operands(v, &mut self.toks);
        Ok((op, parse_type(ty_src, line)?))
    }

    /// An opcode with a fixed operand count. Binary ops and `select` get a
    /// placeholder result type, which `fixup_types` sets.
    fn fixed(
        &mut self,
        op: Opcode,
        mnemonic: &str,
        rest: &'a str,
        line: usize,
    ) -> Result<(Opcode, Type), ParseError> {
        let (ty, nops) = match op {
            Opcode::FAdd | Opcode::FSub | Opcode::FMul | Opcode::FDiv => (Type::F32, 2),
            Opcode::FSqrt | Opcode::FAbs | Opcode::FNeg | Opcode::FExp | Opcode::SiToFp => {
                (Type::F32, 1)
            }
            Opcode::Select => (Type::I32, 3),
            Opcode::Store => (Type::Void, 2),
            Opcode::Ballot => (Type::I64, 1),
            Opcode::Syncthreads => (Type::Void, 0),
            _ => (Type::I32, 2),
        };
        if !rest.is_empty() {
            split_operands(rest, &mut self.toks);
        }
        if self.toks.len() != nops {
            return Err(perr(
                line,
                format!(
                    "{mnemonic} expects {nops} operands, got {}",
                    self.toks.len()
                ),
            ));
        }
        Ok((op, ty))
    }

    /// Resolves the operand tokens of instruction `id`, recording forward
    /// references.
    fn operands(
        &mut self,
        id: InstId,
        params: usize,
        line: usize,
    ) -> Result<Vec<Value>, ParseError> {
        let mut ops = Vec::with_capacity(self.toks.len());
        for (slot, &tok) in self.toks.iter().enumerate() {
            ops.push(match parse_value(tok, &self.names, params, line)? {
                Some(v) => v,
                None => {
                    self.forward.push((id, slot, tok, line));
                    Value::Undef(Type::Void)
                }
            });
        }
        Ok(ops)
    }
}

/// Parses the textual form of a single function.
///
/// # Errors
///
/// Returns a [`ParseError`] with a line number on malformed input.
pub fn parse_function(text: &str) -> Result<Function, ParseError> {
    let lines: Vec<Line<'_>> = significant_lines(text).collect();
    FnParser::default().function(&lines)
}

/// Parses the textual form of a module: one or more `fn @name(...)` bodies
/// (see [`parse_function`] for the per-function syntax), in file order.
/// Line numbers in errors refer to the whole input.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input, input containing no
/// function, or duplicate function names.
pub fn parse_module(text: &str) -> Result<Module, ParseError> {
    // Each function runs from a `fn @` header to the first bare `}` line.
    // Blank/comment lines between functions are ignored, anything else
    // outside a function is an error.
    let mut module = Module::new("module");
    let mut parser = FnParser::default();
    let mut lines: Vec<Line<'_>> = Vec::new();
    for (line, l) in significant_lines(text) {
        if lines.is_empty() && !l.starts_with("fn @") {
            return Err(perr(line, format!("expected `fn @name(...)`, found `{l}`")));
        }
        lines.push((line, l));
        if l != "}" {
            continue;
        }
        let func = parser.function(&lines)?;
        let start = lines[0].0;
        lines.clear();
        module
            .add_function(func)
            .map_err(|dup| perr(start, format!("duplicate function `@{}`", dup.0)))?;
    }
    if let Some(&(start, _)) = lines.first() {
        return Err(perr(start, "unterminated function (missing `}`)"));
    }
    if module.is_empty() {
        return Err(perr(0, "empty input"));
    }
    Ok(module)
}

/// [`parse_module`] followed by per-function type fixup
/// ([`fixup_types`]) and structural verification — the module analogue of
/// [`parse_and_verify`].
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax; structural errors surface
/// with line 0 and the offending function's name.
pub fn parse_and_verify_module(text: &str) -> Result<Module, ParseError> {
    let mut module = parse_module(text)?;
    for func in module.functions_mut() {
        fixup_types(func);
        func.verify_structure()
            .map_err(|e| perr(0, format!("@{}: verification failed: {e}", func.name())))?;
    }
    Ok(module)
}

/// Parses and then resolves operand-derived result types (binary ops,
/// `select`, `gep`) and verifies the result.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax; type errors surface via
/// the structural verifier with line 0.
pub fn parse_and_verify(text: &str) -> Result<Function, ParseError> {
    let mut func = parse_function(text)?;
    fixup_types(&mut func);
    func.verify_structure()
        .map_err(|e| perr(0, format!("verification failed: {e}")))?;
    Ok(func)
}

/// Re-derives operand-dependent result types after operand patching. Runs
/// to a fixpoint because types flow through chains of such instructions.
pub fn fixup_types(func: &mut Function) {
    loop {
        let mut changed = false;
        for b in func.block_ids() {
            for k in 0..func.insts_of(b).len() {
                let id = func.insts_of(b)[k];
                let inst = func.inst(id);
                let from = match inst.opcode {
                    Opcode::Add
                    | Opcode::Sub
                    | Opcode::Mul
                    | Opcode::SDiv
                    | Opcode::SRem
                    | Opcode::UDiv
                    | Opcode::URem
                    | Opcode::And
                    | Opcode::Or
                    | Opcode::Xor
                    | Opcode::Shl
                    | Opcode::LShr
                    | Opcode::AShr
                    | Opcode::Gep { .. } => inst.operands[0],
                    Opcode::Select => inst.operands[1],
                    _ => continue,
                };
                let ty = func.value_ty(from);
                if inst.ty != ty {
                    func.inst_mut(id).ty = ty;
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn parses_simple_kernel() {
        let f = parse_and_verify(
            r#"
fn @k(ptr(global) %arg0, i32 %arg1) -> void {
entry:
  %0 = tid.x
  %1 = icmp slt %0, %arg1
  br %1, t, x
t:
  %2 = mul %0, 2
  %3 = gep i32 %arg0, %0
  store %2, %3
  jump x
x:
  ret
}
"#,
        )
        .unwrap();
        assert_eq!(f.name(), "k");
        assert_eq!(f.block_ids().len(), 3);
        assert_eq!(f.params().len(), 2);
    }

    #[test]
    fn parses_phis_and_loops() {
        let f = parse_and_verify(
            r#"
fn @sum(i32 %arg0) -> i32 {
entry:
  jump hdr
hdr:
  %0 = phi i32 [0, entry], [%3, body]
  %1 = phi i32 [0, entry], [%4, body]
  %2 = icmp slt %0, %arg0
  br %2, body, exit
body:
  %3 = add %0, 1
  %4 = add %1, %0
  jump hdr
exit:
  ret %1
}
"#,
        )
        .unwrap();
        assert_eq!(f.block_ids().len(), 4);
    }

    #[test]
    fn parses_shared_memory_and_floats() {
        let f = parse_and_verify(
            r#"
fn @s() -> void {
  shared tile : [64 x f32]
entry:
  %0 = shared.base 0
  %1 = tid.x
  %2 = gep f32 %0, %1
  %3 = load f32 %2
  %4 = fadd %3, 1.5f
  store %4, %2
  bar.sync
  ret
}
"#,
        )
        .unwrap();
        assert_eq!(f.shared_arrays()[0].len, 64);
    }

    #[test]
    fn round_trips_printer_output() {
        // Build a function with diverse constructs, print it, parse it, and
        // compare the reprints.
        let mut f = Function::new(
            "rt",
            vec![Type::Ptr(AddrSpace::Global), Type::I32],
            Type::I32,
        );
        let sh = f.add_shared_array("t", Type::I32, 32);
        let entry = f.entry();
        let t = f.add_block("t");
        let e = f.add_block("e");
        let x = f.add_block("x");
        let mut b = FunctionBuilder::new(&mut f, entry);
        let tid = b.thread_idx(Dim::X);
        let base = b.shared_base(sh);
        let sp = b.gep(Type::I32, base, tid);
        let v = b.load(Type::I32, sp);
        let c = b.icmp(IcmpPred::Slt, v, b.param(1));
        b.br(c, t, e);
        b.switch_to(t);
        let a = b.add(v, b.const_i32(1));
        let wide = b.sext(a, Type::I64);
        let back = b.trunc(wide, Type::I32);
        b.jump(x);
        b.switch_to(e);
        let m = b.select(c, v, b.const_i32(7));
        b.jump(x);
        b.switch_to(x);
        let p = b.phi(Type::I32, &[(t, back), (e, m)]);
        b.ret(Some(p));

        let printed = f.to_string();
        let reparsed = parse_and_verify(&printed)
            .unwrap_or_else(|err| panic!("reparse failed: {err}\n{printed}"));
        assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e =
            parse_function("fn @x() -> void {\nentry:\n  %0 = bogus 1, 2\n  ret\n}").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn undefined_value_is_an_error() {
        let e = parse_function("fn @x() -> void {\nentry:\n  store %9, %9\n  ret\n}").unwrap_err();
        assert!(e.message.contains("undefined value"));
    }

    #[test]
    fn unknown_block_is_an_error() {
        let e = parse_function("fn @x() -> void {\nentry:\n  jump nowhere\n}").unwrap_err();
        assert!(e.message.contains("unknown block"));
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        // Malformed input must end in a typed error, never a panic here or
        // in `fixup_types`.
        let cases = [
            (
                "fn @x() -> void {\nentry:\n  %0 = phi i32 [0, nowhere]\n  ret\n}",
                3,
                "unknown block `nowhere`",
            ),
            (
                "fn @)x( -> void {\nentry:\n  ret\n}",
                1,
                "expected `)` after `(`",
            ),
            (
                "fn @x() -> void {\nentry:\n  %0 = add %arg9, 1\n  ret\n}",
                3,
                "bad parameter `%arg9`",
            ),
            (
                "fn @x(i32 %arg0) -> void {\nentry:\n  %0 = gep i32 %arg1, 1\n  ret\n}",
                3,
                "bad parameter `%arg1`",
            ),
        ];
        for (text, line, message) in cases {
            let e = parse_and_verify(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
            assert!(e.message.contains(message), "{text:?}: {e}");
            let e = parse_module(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}: {e}");
        }
    }

    #[test]
    fn forward_references_resolve_and_redefinitions_are_errors() {
        // `%5` is used in `t`, printed before its defining block `d`, and
        // the loop φ takes `%3` over the back edge.
        let f = parse_and_verify(
            "fn @f(i32 %arg0) -> i32 {\n\
             entry:\n  %5 = add %arg0, 1\n  jump h\n\
             h:\n  %1 = phi i32 [0, entry], [%3, t]\n  %2 = icmp slt %1, %5\n  br %2, t, x\n\
             t:\n  %3 = add %1, %5\n  jump h\n\
             x:\n  ret %1\n}",
        )
        .unwrap();
        assert_eq!(f.block_ids().len(), 4);
        let e =
            parse_function("fn @f() -> void {\nentry:\n  %0 = add 1, 2\n  %0 = add 3, 4\n  ret\n}")
                .unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("duplicate value `%0`"), "{e}");
        // A name that is a huge number is just a name.
        let e = parse_function("fn @f() -> void {\nentry:\n  store %4000000000, %7\n  ret\n}")
            .unwrap_err();
        assert!(e.message.contains("undefined value `%4000000000`"), "{e}");
    }

    #[test]
    fn unicode_whitespace_is_trimmed() {
        // The ASCII fast path of `trim` must agree with `str::trim`.
        let f = parse_function("fn @f() -> void {\n\u{a0}entry:\n\x0b  ret\u{3000}\n}").unwrap();
        assert_eq!(f.to_string(), "fn @f() -> void {\nentry:\n  ret\n}\n");
    }

    const TWO_FUNCS: &str = r#"
// a module of two kernels
fn @a(i32 %arg0) -> i32 {
entry:
  %0 = add %arg0, 1
  ret %0
}

fn @b() -> void {
entry:
  ret
}
"#;

    #[test]
    fn parses_modules_and_round_trips() {
        let m = parse_and_verify_module(TWO_FUNCS).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.functions()[0].name(), "a");
        assert_eq!(m.functions()[1].name(), "b");
        let printed = m.to_string();
        let reparsed = parse_and_verify_module(&printed).unwrap();
        assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn single_function_file_is_a_module_of_one() {
        let m = parse_module("fn @solo() -> void {\nentry:\n  ret\n}").unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.functions()[0].name(), "solo");
    }

    #[test]
    fn module_errors_carry_absolute_line_numbers() {
        // The bad instruction sits on line 8 of the whole file, inside the
        // second function.
        let text = "fn @a() -> void {\nentry:\n  ret\n}\n\nfn @b() -> void {\nentry:\n  %0 = bogus 1\n  ret\n}\n";
        let e = parse_module(text).unwrap_err();
        assert_eq!(e.line, 8, "{e}");
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn module_rejects_duplicates_and_stray_text() {
        let dup = "fn @a() -> void {\nentry:\n  ret\n}\nfn @a() -> void {\nentry:\n  ret\n}\n";
        let e = parse_module(dup).unwrap_err();
        assert!(e.message.contains("duplicate function `@a`"), "{e}");
        let stray = "wat\nfn @a() -> void {\nentry:\n  ret\n}\n";
        let e = parse_module(stray).unwrap_err();
        assert_eq!(e.line, 1);
        let unterminated = "fn @a() -> void {\nentry:\n  ret\n";
        let e = parse_module(unterminated).unwrap_err();
        assert!(e.message.contains("unterminated"), "{e}");
    }
}
