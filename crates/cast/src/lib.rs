//! `cocci-cast`: lexer, AST, and parser for the C/C++ subset targeted by
//! the semantic-patch engine, plus the supporting analyses the matcher
//! needs (span-insensitive structural equality, integer constant folding,
//! canonical rendering, and AST visitors).
//!
//! The grammar coverage is dictated by the paper's Section-3 use cases:
//! functions with GCC attributes, OpenMP/OpenACC/GCC pragmas preserved as
//! first-class nodes, CUDA kernel-launch chevrons, C++ range-`for` and
//! C++23 multi-index subscripts. In pattern mode ([`ParseOptions::pattern`])
//! the same parser accepts SMPL extensions (dots, disjunction,
//! metavariables) so that semantic-patch rule bodies and target code share
//! one AST.

pub mod ast;
pub mod eq;
pub mod fold;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod shift;
pub mod token;
pub mod visit;

pub use ast::*;
pub use lexer::{lex, LexError, LexMode};
pub use parser::{
    parse_expression, parse_int, parse_items_at, parse_statements, parse_stmts_at,
    parse_translation_unit, parse_with_tables, Fragment, Lang, MetaKind, MetaLookup, NoMeta,
    ParseErr, ParseOptions, UnitParse,
};
pub use token::{Punct, Token, TokenKind};
