//! String interning: `Symbol` is a 32-bit handle to a deduplicated
//! string, so identifier/type-name equality on the matcher hot path is
//! one integer compare instead of a byte-wise `String` compare, and AST
//! nodes stop owning heap strings entirely.
//!
//! The interner is process-global and sharded: a symbol must mean the
//! same string on the pattern side (compiled once per run) and the file
//! side (parsed per worker thread), and a global table is the only
//! arrangement in which the two can mint equal handles without
//! rendezvous. [`Interner::global`] is that one instance; the `Symbol`
//! convenience methods ([`Symbol::intern`], [`Symbol::as_str`]) go
//! through it.
//!
//! Interned strings are leaked (`Box::leak`) so `resolve` returns
//! `&'static str` without holding a lock across the call — the set of
//! distinct identifiers in a run is bounded by the corpus vocabulary,
//! which for a batch tool is an acceptable, strictly-bounded leak.
//!
//! Hashing is FNV-1a: identifier-sized keys are where FNV beats SipHash
//! by the widest margin, and interning needs no DoS hardening (the
//! attacker would be the code being patched, whose worst case is a slow
//! lint of itself).
//!
//! `Symbol`'s derived `Ord` is by numeric id — creation order, not
//! lexicographic. Sort by [`Symbol::as_str`] at any user-visible
//! boundary (diagnostics, JSON) that was previously alphabetical.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::{OnceLock, RwLock};

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;

/// A handle to an interned string. Copy, 4 bytes, equality ≡ string
/// equality (two `Symbol`s from the global interner are equal iff the
/// strings they intern are equal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Intern `s` in the global interner.
    pub fn intern(s: &str) -> Symbol {
        Interner::global().intern(s)
    }

    /// The interned string. O(1) plus a shard read-lock.
    pub fn as_str(self) -> &'static str {
        Interner::global().resolve(self)
    }

    /// The raw id (shard in the low bits, slot above). For
    /// diagnostics/probes only — ids are not stable across processes.
    pub fn to_u32(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<&Symbol> for Symbol {
    fn from(s: &Symbol) -> Symbol {
        *s
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Symbol {
        Symbol::intern(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Symbol {
        Symbol::intern(&s)
    }
}

impl PartialEq<str> for Symbol {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Symbol {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// FNV-1a, 64-bit.
#[derive(Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        self.0 = h;
    }
}

/// `BuildHasher` for FNV-1a — usable anywhere a `HashMap` wants a
/// cheap, deterministic hash of short keys.
#[derive(Clone, Default)]
pub struct FnvBuild;

impl BuildHasher for FnvBuild {
    type Hasher = Fnv1a;

    fn build_hasher(&self) -> Fnv1a {
        Fnv1a::default()
    }
}

fn fnv1a_str(s: &str) -> u64 {
    let mut h = Fnv1a::default();
    h.write(s.as_bytes());
    h.finish()
}

#[derive(Default)]
struct Shard {
    map: HashMap<&'static str, u32, FnvBuild>,
    strings: Vec<&'static str>,
}

/// The deduplicating string table behind [`Symbol`]. Sharded 16 ways so
/// parser threads interning disjoint vocabularies rarely contend; the
/// shard index rides in the low bits of the symbol so `resolve` needs
/// no search.
pub struct Interner {
    shards: [RwLock<Shard>; SHARDS],
}

impl Interner {
    fn new() -> Interner {
        Interner {
            shards: std::array::from_fn(|_| RwLock::new(Shard::default())),
        }
    }

    /// The process-global interner all `Symbol`s resolve against.
    pub fn global() -> &'static Interner {
        static GLOBAL: OnceLock<Interner> = OnceLock::new();
        GLOBAL.get_or_init(Interner::new)
    }

    /// Intern `s`, returning its stable handle. Repeat calls with equal
    /// strings return equal symbols; the common already-interned case
    /// takes only a shard read-lock.
    pub fn intern(&self, s: &str) -> Symbol {
        let shard_ix = (fnv1a_str(s) >> (64 - SHARD_BITS)) as usize;
        let shard = &self.shards[shard_ix];
        if let Some(&slot) = shard.read().unwrap().map.get(s) {
            return Symbol(slot << SHARD_BITS | shard_ix as u32);
        }
        let mut w = shard.write().unwrap();
        // Re-check: another thread may have interned between the locks.
        if let Some(&slot) = w.map.get(s) {
            return Symbol(slot << SHARD_BITS | shard_ix as u32);
        }
        let slot = u32::try_from(w.strings.len()).expect("interner shard overflow");
        assert!(slot < 1 << (32 - SHARD_BITS), "interner shard overflow");
        let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
        w.strings.push(leaked);
        w.map.insert(leaked, slot);
        Symbol(slot << SHARD_BITS | shard_ix as u32)
    }

    /// The string `sym` was minted from.
    pub fn resolve(&self, sym: Symbol) -> &'static str {
        let shard_ix = (sym.0 & (SHARDS as u32 - 1)) as usize;
        let slot = (sym.0 >> SHARD_BITS) as usize;
        self.shards[shard_ix].read().unwrap().strings[slot]
    }

    /// Number of distinct strings interned so far (all shards).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap().strings.len())
            .sum()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Intern `s` in the global interner (free-function form).
pub fn intern(s: &str) -> Symbol {
    Symbol::intern(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_dedup() {
        let a = Symbol::intern("launch_kernel");
        let b = Symbol::intern("launch_kernel");
        let c = Symbol::intern("launch_kerneL");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "launch_kernel");
        assert_eq!(c.as_str(), "launch_kerneL");
    }

    #[test]
    fn empty_and_unicode() {
        assert_eq!(Symbol::intern("").as_str(), "");
        let s = "naïve_π";
        assert_eq!(Symbol::intern(s).as_str(), s);
    }

    #[test]
    fn str_comparisons() {
        let s = Symbol::intern("omp_get_num_threads");
        assert_eq!(s, "omp_get_num_threads");
        assert!(s != "omp_get_thread_num");
        assert_eq!(s.to_string(), "omp_get_num_threads");
    }

    #[test]
    fn global_is_shared() {
        let i1 = Interner::global();
        let i2 = Interner::global();
        let a = i1.intern("shared_across_handles");
        let b = i2.intern("shared_across_handles");
        assert_eq!(a, b);
        assert!(std::ptr::eq(i1, i2));
    }

    #[test]
    fn concurrent_interning_agrees() {
        let words: Vec<String> = (0..256).map(|i| format!("concurrent_word_{i}")).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let words = words.clone();
                std::thread::spawn(move || {
                    words.iter().map(|w| Symbol::intern(w)).collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all[1..] {
            assert_eq!(row, &all[0]);
        }
        for (w, s) in words.iter().zip(&all[0]) {
            assert_eq!(s.as_str(), w.as_str());
        }
    }
}
