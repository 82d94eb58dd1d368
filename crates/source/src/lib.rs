//! Byte spans and the global string interner.
//!
//! Every other crate in the workspace refers to program text through the
//! types defined here: a [`Span`] is a half-open byte range into one
//! file's text, and a [`Symbol`] is an interned identifier or token
//! string.

pub mod intern;
mod span;

pub use intern::{intern, FnvBuild, Interner, Symbol};
pub use span::Span;
