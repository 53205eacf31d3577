//! The pLUTo ISA (paper §6.1, Table 2).
//!
//! Instructions operate on special-purpose *pLUTo registers*: row registers
//! (`$prgN`) identify contiguously allocated DRAM rows used as query inputs
//! and outputs; subarray registers (`$lut_rgN`) identify LUT-holding
//! pLUTo-enabled subarrays. The module provides the instruction set, a
//! paper-style textual assembly [`fmt::Display`], and a parser for
//! round-trip/golden tests.

use crate::error::PlutoError;
use std::fmt;

/// A pLUTo Row Register (`$prgN`): names a run of allocated DRAM rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowReg(pub u16);

/// A pLUTo Subarray Register (`$lut_rgN`): names a LUT-holding subarray.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubarrayReg(pub u16);

impl fmt::Display for RowReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$prg{}", self.0)
    }
}

impl fmt::Display for SubarrayReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "$lut_rg{}", self.0)
    }
}

/// Shift direction for the DRISA-backed shift instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDir {
    /// Toward the most-significant end (row bit 0).
    Left,
    /// Toward the least-significant end.
    Right,
}

/// One pLUTo ISA instruction (paper Table 2).
#[derive(Debug, Clone, PartialEq)]
pub enum Instruction {
    /// `pluto_row_alloc dst, size, bitwidth` — allocate `size` elements of
    /// `bitwidth` bits as whole DRAM rows, bound to `dst`.
    RowAlloc {
        /// Destination row register.
        dst: RowReg,
        /// Number of elements.
        size: u32,
        /// Element bit width (`log2(lut_size)` for query inputs).
        bitwidth: u32,
    },
    /// `pluto_subarray_alloc dst, num_rows, lut` — allocate a pLUTo-enabled
    /// subarray holding the named LUT.
    SubarrayAlloc {
        /// Destination subarray register.
        dst: SubarrayReg,
        /// Number of rows (= LUT elements) reserved.
        num_rows: u32,
        /// Name of the LUT in the controller's registry (the paper's
        /// `lut_file` memory location).
        lut_name: String,
    },
    /// `pluto_op dst, src, lut_subarr, lut_size, lut_bitw` — the pLUTo Row
    /// Sweep / bulk LUT query.
    Op {
        /// Output row register.
        dst: RowReg,
        /// Input row register.
        src: RowReg,
        /// LUT-holding subarray register.
        lut: SubarrayReg,
        /// Number of LUT elements (logical rows). Any length is legal: a
        /// §5.6 segment that is not a power of two is padded to one.
        lut_size: u32,
        /// Slot width of the query (≥ log2(lut_size); inputs zero-padded).
        lut_bitw: u32,
    },
    /// `pluto_not dst, src` — in-DRAM bitwise NOT (Ambit \[84\]).
    Not {
        /// Output row register.
        dst: RowReg,
        /// Input row register.
        src: RowReg,
    },
    /// `pluto_and dst, src1, src2` — in-DRAM bitwise AND (Ambit \[84\]).
    And {
        /// Output row register.
        dst: RowReg,
        /// First input.
        src1: RowReg,
        /// Second input.
        src2: RowReg,
    },
    /// `pluto_or dst, src1, src2` — in-DRAM bitwise OR (Ambit \[84\]).
    Or {
        /// Output row register.
        dst: RowReg,
        /// First input.
        src1: RowReg,
        /// Second input.
        src2: RowReg,
    },
    /// `pluto_bit_shift_{l,r} src, #N` — DRISA bit shift in place \[79\].
    BitShift {
        /// Shift direction.
        dir: ShiftDir,
        /// Register shifted in place.
        reg: RowReg,
        /// Shift amount in bits.
        amount: u32,
    },
    /// `pluto_byte_shift_{l,r} src, #N` — DRISA byte shift in place \[79\].
    ByteShift {
        /// Shift direction.
        dir: ShiftDir,
        /// Register shifted in place.
        reg: RowReg,
        /// Shift amount in bytes.
        amount: u32,
    },
    /// `pluto_move dst, src` — in-DRAM row copy (RowClone / LISA \[108\]).
    Move {
        /// Destination row register.
        dst: RowReg,
        /// Source row register.
        src: RowReg,
    },
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::RowAlloc {
                dst,
                size,
                bitwidth,
            } => {
                write!(f, "pluto_row_alloc {dst}, {size}, {bitwidth}")
            }
            Instruction::SubarrayAlloc {
                dst,
                num_rows,
                lut_name,
            } => write!(f, "pluto_subarray_alloc {dst}, {num_rows}, \"{lut_name}\""),
            Instruction::Op {
                dst,
                src,
                lut,
                lut_size,
                lut_bitw,
            } => write!(f, "pluto_op {dst}, {src}, {lut}, {lut_size}, {lut_bitw}"),
            Instruction::Not { dst, src } => write!(f, "pluto_not {dst}, {src}"),
            Instruction::And { dst, src1, src2 } => write!(f, "pluto_and {dst}, {src1}, {src2}"),
            Instruction::Or { dst, src1, src2 } => write!(f, "pluto_or {dst}, {src1}, {src2}"),
            Instruction::BitShift { dir, reg, amount } => match dir {
                ShiftDir::Left => write!(f, "pluto_bit_shift_l {reg}, {amount}"),
                ShiftDir::Right => write!(f, "pluto_bit_shift_r {reg}, {amount}"),
            },
            Instruction::ByteShift { dir, reg, amount } => match dir {
                ShiftDir::Left => write!(f, "pluto_byte_shift_l {reg}, {amount}"),
                ShiftDir::Right => write!(f, "pluto_byte_shift_r {reg}, {amount}"),
            },
            Instruction::Move { dst, src } => write!(f, "pluto_move {dst}, {src}"),
        }
    }
}

/// A pLUTo ISA program plus its I/O binding metadata.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// The instruction sequence.
    pub instructions: Vec<Instruction>,
    /// Row registers the caller must fill with input data, in call order,
    /// with their element bit widths.
    pub inputs: Vec<(RowReg, u32)>,
    /// Row register holding the result, with its element bit width.
    pub output: Option<(RowReg, u32)>,
    /// Slot width shared by all rows of this program (the compiler's
    /// global alignment choice, §6.3).
    pub slot_bits: u32,
}

impl Program {
    /// Renders the program as paper-style assembly text.
    pub fn to_assembly(&self) -> String {
        let mut s = String::new();
        for inst in &self.instructions {
            s.push_str(&inst.to_string());
            s.push('\n');
        }
        s
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_assembly())
    }
}

/// Parses one assembly line into an [`Instruction`].
///
/// # Errors
/// Fails with [`PlutoError::InvalidProgram`] on unknown mnemonics or
/// malformed operands.
pub fn parse_instruction(line: &str) -> Result<Instruction, PlutoError> {
    let line = line.trim();
    let (mnemonic, rest) = line
        .split_once(char::is_whitespace)
        .ok_or_else(|| bad(line, "missing operands"))?;
    let ops: Vec<&str> = rest.split(',').map(str::trim).collect();
    let row = |s: &str| -> Result<RowReg, PlutoError> {
        s.strip_prefix("$prg")
            .and_then(|n| n.parse().ok())
            .map(RowReg)
            .ok_or_else(|| bad(line, "expected a $prgN register"))
    };
    let sub = |s: &str| -> Result<SubarrayReg, PlutoError> {
        s.strip_prefix("$lut_rg")
            .and_then(|n| n.parse().ok())
            .map(SubarrayReg)
            .ok_or_else(|| bad(line, "expected a $lut_rgN register"))
    };
    let num = |s: &str| -> Result<u32, PlutoError> {
        s.parse().map_err(|_| bad(line, "expected a number"))
    };
    let arity = |n: usize| -> Result<(), PlutoError> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(bad(line, "wrong operand count"))
        }
    };
    match mnemonic {
        "pluto_row_alloc" => {
            arity(3)?;
            Ok(Instruction::RowAlloc {
                dst: row(ops[0])?,
                size: num(ops[1])?,
                bitwidth: num(ops[2])?,
            })
        }
        "pluto_subarray_alloc" => {
            arity(3)?;
            Ok(Instruction::SubarrayAlloc {
                dst: sub(ops[0])?,
                num_rows: num(ops[1])?,
                lut_name: ops[2].trim_matches('"').to_string(),
            })
        }
        "pluto_op" => {
            arity(5)?;
            Ok(Instruction::Op {
                dst: row(ops[0])?,
                src: row(ops[1])?,
                lut: sub(ops[2])?,
                lut_size: num(ops[3])?,
                lut_bitw: num(ops[4])?,
            })
        }
        "pluto_not" => {
            arity(2)?;
            Ok(Instruction::Not {
                dst: row(ops[0])?,
                src: row(ops[1])?,
            })
        }
        "pluto_and" | "pluto_or" => {
            arity(3)?;
            let (dst, src1, src2) = (row(ops[0])?, row(ops[1])?, row(ops[2])?);
            Ok(if mnemonic == "pluto_and" {
                Instruction::And { dst, src1, src2 }
            } else {
                Instruction::Or { dst, src1, src2 }
            })
        }
        "pluto_bit_shift_l" | "pluto_bit_shift_r" => {
            arity(2)?;
            Ok(Instruction::BitShift {
                dir: if mnemonic.ends_with('l') {
                    ShiftDir::Left
                } else {
                    ShiftDir::Right
                },
                reg: row(ops[0])?,
                amount: num(ops[1])?,
            })
        }
        "pluto_byte_shift_l" | "pluto_byte_shift_r" => {
            arity(2)?;
            Ok(Instruction::ByteShift {
                dir: if mnemonic.ends_with('l') {
                    ShiftDir::Left
                } else {
                    ShiftDir::Right
                },
                reg: row(ops[0])?,
                amount: num(ops[1])?,
            })
        }
        "pluto_move" => {
            arity(2)?;
            Ok(Instruction::Move {
                dst: row(ops[0])?,
                src: row(ops[1])?,
            })
        }
        other => Err(bad(line, &format!("unknown mnemonic `{other}`"))),
    }
}

/// Parses a whole assembly listing (one instruction per line; `#` comments
/// and blank lines are skipped).
///
/// # Errors
/// Fails on the first malformed line.
pub fn parse_program(text: &str) -> Result<Vec<Instruction>, PlutoError> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(parse_instruction)
        .collect()
}

fn bad(line: &str, why: &str) -> PlutoError {
    PlutoError::InvalidProgram {
        reason: format!("{why}: `{line}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_instructions() -> Vec<Instruction> {
        vec![
            Instruction::RowAlloc {
                dst: RowReg(0),
                size: 4096,
                bitwidth: 2,
            },
            Instruction::SubarrayAlloc {
                dst: SubarrayReg(0),
                num_rows: 256,
                lut_name: "mul2_lut_file.dat".into(),
            },
            Instruction::Op {
                dst: RowReg(3),
                src: RowReg(5),
                lut: SubarrayReg(0),
                lut_size: 256,
                lut_bitw: 4,
            },
            Instruction::Not {
                dst: RowReg(1),
                src: RowReg(0),
            },
            Instruction::And {
                dst: RowReg(5),
                src1: RowReg(0),
                src2: RowReg(1),
            },
            Instruction::Or {
                dst: RowReg(5),
                src1: RowReg(3),
                src2: RowReg(2),
            },
            Instruction::BitShift {
                dir: ShiftDir::Left,
                reg: RowReg(0),
                amount: 4,
            },
            Instruction::BitShift {
                dir: ShiftDir::Right,
                reg: RowReg(0),
                amount: 1,
            },
            Instruction::ByteShift {
                dir: ShiftDir::Left,
                reg: RowReg(2),
                amount: 8,
            },
            Instruction::Move {
                dst: RowReg(9),
                src: RowReg(8),
            },
        ]
    }

    #[test]
    fn assembly_roundtrip_every_instruction() {
        for inst in all_instructions() {
            let text = inst.to_string();
            let parsed = parse_instruction(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(parsed, inst, "{text}");
        }
    }

    #[test]
    fn renders_paper_style_assembly() {
        let i = Instruction::Op {
            dst: RowReg(3),
            src: RowReg(5),
            lut: SubarrayReg(0),
            lut_size: 256,
            lut_bitw: 4,
        };
        assert_eq!(i.to_string(), "pluto_op $prg3, $prg5, $lut_rg0, 256, 4");
    }

    #[test]
    fn parses_figure5_listing() {
        // Condensed from the paper's Figure 5c.
        let text = r#"
            pluto_row_alloc $prg0, 4096, 2   # Allocate A
            pluto_row_alloc $prg1, 4096, 2   # Allocate B
            pluto_subarray_alloc $lut_rg0, 16, "mul2_lut_file.dat"
            pluto_row_alloc $prg5, 4096, 8
            pluto_bit_shift_l $prg0, 4       # Shift A 4 bits to the left
            pluto_or $prg5, $prg0, $prg1     # $prg5 <- A | B
            pluto_op $prg3, $prg5, $lut_rg0, 16, 4
        "#;
        let prog = parse_program(text).unwrap();
        assert_eq!(prog.len(), 7);
        assert!(matches!(prog[4], Instruction::BitShift { amount: 4, .. }));
        assert!(matches!(
            prog.last(),
            Some(Instruction::Op { lut_size: 16, .. })
        ));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_instruction("pluto_frobnicate $prg0, 1").is_err());
        assert!(parse_instruction("pluto_move $prg0").is_err());
        assert!(parse_instruction("pluto_move $lut_rg0, $prg1").is_err());
        assert!(parse_instruction("pluto_op $prg0, $prg1, $lut_rg0, x, 4").is_err());
        assert!(parse_instruction("pluto_move").is_err());
    }

    #[test]
    fn program_display_joins_lines() {
        let p = Program {
            instructions: all_instructions(),
            ..Program::default()
        };
        let text = p.to_string();
        assert_eq!(text.lines().count(), all_instructions().len());
        let reparsed = parse_program(&text).unwrap();
        assert_eq!(reparsed, all_instructions());
    }

    #[test]
    fn registers_display() {
        assert_eq!(RowReg(7).to_string(), "$prg7");
        assert_eq!(SubarrayReg(1).to_string(), "$lut_rg1");
    }
}
