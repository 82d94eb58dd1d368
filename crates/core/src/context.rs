//! Per-text state shared across rules: parse once, match N times.
//!
//! Fifty rules over one file must not re-lex, re-parse, and re-build
//! every function's CFG fifty times. [`FileContext`] holds the
//! rule-independent substrate of one text — the text, its parsed
//! translation unit, the per-function CFG cache, the line-table
//! [`Resolver`], the suppression-comment index — built on first use
//! and borrowed by each rule's matcher
//! ([`Patcher::apply_ctx`](crate::Patcher::apply_ctx)).
//!
//! Every text a rule runs on has one context. The caller's context
//! describes the **original** file text and outlives the patch, so the
//! next rule set of a scan reuses its caches. A transform rule whose
//! edits land mid-patch gives the rewritten text a context of its own
//! (`FileContext::after_edits`), which the patch's later rules share.
//! That context takes over the previous text's tree, identifier table
//! and typedef table, and its first parse re-parses only the statements
//! or items the edits touched (see the `splice` module), falling back
//! to a full parse where a splice cannot be sure to match one. The
//! [`parses`] and [`cfg_builds`] counters exist so tests can assert the
//! "exactly once" property instead of trusting it.
//!
//! The parse also leaves a table of the text's identifier tokens: each
//! one's symbol and offset, handed over by the parser, which holds the
//! tokens anyway. The tree search asks it where a rule's token atoms
//! occur (see the `treesearch` module); the offsets of one
//! symbol are gathered the first time a rule asks for it, so a symbol no
//! rule names costs nothing. With the table comes a dense span array of
//! the text's root-holding items, built on first use, so an occurrence
//! finds its item by binary search.
//!
//! Whatever a context builds for every rule — the parse and its tables,
//! the line table, the suppression index, the CFGs — is built by
//! whichever rule asks first. [`shared_time`] adds up that time, so the
//! scan driver charges it to no rule: a rule's reported seconds are its
//! own matching.
//!
//! [`parses`]: FileContext::parses
//! [`cfg_builds`]: FileContext::cfg_builds
//! [`shared_time`]: FileContext::shared_time

use crate::edits::EditSet;
use crate::findings::Resolver;
use crate::flowmatch::CfgCache;
use crate::splice::{splice, Prior};
use crate::suppress::SuppressionIndex;
use crate::treesearch::RootItems;
use cocci_cast::ast::TranslationUnit;
use cocci_cast::parser::{parse_with_tables, NoMeta, ParseOptions, UnitParse};
use cocci_cast::Lang;
use cocci_source::Symbol;
use cocci_trace::{Counter, Phase};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-text state built once and shared by every rule run on the text.
/// See the module docs.
pub struct FileContext {
    name: Arc<str>,
    text: Arc<str>,
    parsed: Option<Parsed>,
    parse_err: Option<(Lang, String)>,
    resolver: Option<Arc<Resolver>>,
    suppress: Option<Arc<SuppressionIndex>>,
    cfgs: CfgCache,
    parses: usize,
    /// Time spent building the state above, CFGs aside (the cache keeps
    /// their time).
    built: Duration,
    /// The previous text's parse and the edits that made this text, until
    /// the first parse splices them.
    prior: Option<Prior>,
}

/// One parse of the text and the tables that come with it.
struct Parsed {
    lang: Lang,
    tu: Arc<TranslationUnit>,
    /// Every identifier token's symbol and start offset, in source order.
    idents: Arc<Vec<(Symbol, u32)>>,
    /// Every typedef name and the offset where its declaration ends.
    typedefs: Arc<Vec<(Symbol, u32)>>,
    /// The offsets of each symbol asked for so far, ascending.
    occurrences: HashMap<Symbol, Vec<u32>>,
    /// The root-holding items, built on first use (`None` inside when the
    /// items' spans do not allow the array).
    items: Option<Option<Arc<RootItems>>>,
}

/// Where the tree search tries a rule that pins by token atom: the
/// offsets of its rarest token atom in the text, and the text's
/// root-holding items.
pub(crate) struct AtomPin {
    /// Identifier-token offsets of the rarest atom, ascending.
    pub(crate) offsets: Vec<u32>,
    /// The items that hold roots, as a dense span array.
    pub(crate) items: Arc<RootItems>,
}

/// A rule pins by token atom only when its rarest atom is at most one in
/// this many of the text's identifier tokens. Denser atoms sit in most
/// items, so enumerating their holders would cost as much as walking.
const PIN_MAX_SHARE: usize = 16;

impl FileContext {
    /// A fresh context over one file's text.
    pub fn new(name: impl Into<String>, text: impl Into<Arc<str>>) -> FileContext {
        FileContext {
            name: name.into().into(),
            text: text.into(),
            parsed: None,
            parse_err: None,
            resolver: None,
            suppress: None,
            cfgs: CfgCache::default(),
            parses: 0,
            built: Duration::ZERO,
            prior: None,
        }
    }

    /// The context of `text`, which applying `edits` to this context's
    /// text made. It takes over this text's tree, identifier table and
    /// typedef table, for its first parse to splice.
    pub(crate) fn after_edits(&self, text: String, edits: &EditSet) -> FileContext {
        let mut next = FileContext::new(self.name(), text);
        next.prior = self.parsed.as_ref().map(|p| Prior {
            lang: p.lang,
            text: self.text_arc(),
            tu: Arc::clone(&p.tu),
            idents: Arc::clone(&p.idents),
            typedefs: Arc::clone(&p.typedefs),
            edits: edits.changes(),
        });
        next
    }

    /// The file's (display) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A cheap shared handle on the name (position bindings carry it).
    pub fn name_arc(&self) -> Arc<str> {
        Arc::clone(&self.name)
    }

    /// The text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// A cheap shared handle on the text.
    pub fn text_arc(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// Parse the text under `opts`, caching the result: the first rule
    /// pays for the parse, later rules (of this patch or any other in a
    /// scan) get the same tree. A parse *failure* is cached too — fifty
    /// rules over an unparsable file report one error each without
    /// re-lexing it fifty times. A context made by `after_edits` splices
    /// its first parse from the previous text's where it can; either way
    /// the text counts as one parse.
    pub fn parse(&mut self, opts: ParseOptions) -> Result<Arc<TranslationUnit>, String> {
        if let Some(p) = &self.parsed {
            if p.lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Ok(Arc::clone(&p.tu));
            }
        }
        if let Some((lang, e)) = &self.parse_err {
            if *lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Err(e.clone());
            }
        }
        self.parses += 1;
        let t0 = Instant::now();
        let parsed = {
            let _span = cocci_trace::span(Phase::Parse);
            cocci_trace::count(Counter::FilesParsed, 1);
            match self.splice(opts) {
                Some(unit) => Ok(unit),
                None => parse_with_tables(&self.text, opts, &NoMeta),
            }
        };
        self.built += t0.elapsed();
        match parsed {
            Ok(unit) => {
                let tu = Arc::new(unit.tu);
                self.parsed = Some(Parsed {
                    lang: opts.lang,
                    tu: Arc::clone(&tu),
                    idents: Arc::new(unit.idents),
                    typedefs: Arc::new(unit.typedefs),
                    occurrences: HashMap::new(),
                    items: None,
                });
                Ok(tu)
            }
            Err(e) => {
                let msg = e.to_string();
                self.parse_err = Some((opts.lang, msg.clone()));
                Err(msg)
            }
        }
    }

    /// The parse spliced from the previous text's, when this context has
    /// one to take over and the splice serves.
    fn splice(&mut self, opts: ParseOptions) -> Option<UnitParse> {
        let prior = self.prior.take()?;
        let unit = (prior.lang == opts.lang && !opts.pattern)
            .then(|| splice(prior, &self.text))
            .flatten();
        let counter = match unit {
            Some(_) => Counter::Splices,
            None => Counter::SpliceFallbacks,
        };
        cocci_trace::count(counter, 1);
        unit
    }

    /// Where to try a rule whose matches each hold every one of `atoms` as
    /// an identifier token inside their root: the offsets of the atom with
    /// the fewest occurrences in the last parse, with the text's
    /// root-holding items. `None` when there is no atom, no parse, or
    /// the rarest atom is too common to pin (the search then walks). An
    /// atom that never occurs gives no offsets: nothing can match.
    pub(crate) fn atom_pin(&mut self, atoms: &[Symbol]) -> Option<AtomPin> {
        let t0 = Instant::now();
        let pin = self.parsed.as_mut().and_then(|p| p.atom_pin(atoms));
        self.built += t0.elapsed();
        pin
    }

    /// The line/col resolver for the text, built on first use.
    pub fn resolver(&mut self) -> Arc<Resolver> {
        match &self.resolver {
            Some(r) => Arc::clone(r),
            None => {
                let t0 = Instant::now();
                let r = Arc::new(Resolver::new(&self.name, &self.text));
                self.built += t0.elapsed();
                self.resolver = Some(Arc::clone(&r));
                r
            }
        }
    }

    /// The `// spatch-ignore` suppression index, built on first use.
    pub fn suppressions(&mut self) -> Arc<SuppressionIndex> {
        match &self.suppress {
            Some(s) => Arc::clone(s),
            None => {
                let t0 = Instant::now();
                let s = Arc::new(SuppressionIndex::parse(&self.text));
                self.built += t0.elapsed();
                self.suppress = Some(Arc::clone(&s));
                s
            }
        }
    }

    /// Time spent so far building state every rule shares: parses, the
    /// identifier and item tables, the line table, the suppression index
    /// and the CFGs. The rule that asks first pays for these, so the
    /// scan driver subtracts what this grew by during a rule's run.
    pub fn shared_time(&self) -> Duration {
        self.built + self.cfgs.build_time()
    }

    /// The text's per-function CFG cache.
    pub fn cfgs(&mut self) -> &mut CfgCache {
        &mut self.cfgs
    }

    /// How many times the text was actually parsed through this
    /// context — the probe behind the scan engine's "one parse serves N
    /// rules" guarantee.
    pub fn parses(&self) -> usize {
        self.parses
    }

    /// How many per-function CFGs were built through this context.
    pub fn cfg_builds(&self) -> usize {
        self.cfgs.builds()
    }
}

impl Parsed {
    fn atom_pin(&mut self, atoms: &[Symbol]) -> Option<AtomPin> {
        let idents = &self.idents;
        for &atom in atoms {
            self.occurrences.entry(atom).or_insert_with(|| {
                idents
                    .iter()
                    .filter(|(sym, _)| *sym == atom)
                    .map(|&(_, at)| at)
                    .collect()
            });
        }
        let offsets = atoms
            .iter()
            .map(|atom| &self.occurrences[atom])
            .min_by_key(|offsets| offsets.len())?;
        if offsets.len() * PIN_MAX_SHARE > idents.len() {
            return None;
        }
        let offsets = offsets.to_vec();
        let tu = &self.tu;
        let items = self
            .items
            .get_or_insert_with(|| RootItems::new(tu).map(Arc::new))
            .clone()?;
        Some(AtomPin { offsets, items })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_is_cached_per_lang() {
        let mut ctx = FileContext::new("a.c", "void f(void) { g(); }\n");
        let opts = ParseOptions {
            pattern: false,
            lang: Lang::C,
        };
        let t1 = ctx.parse(opts).unwrap();
        let t2 = ctx.parse(opts).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2));
        assert_eq!(ctx.parses(), 1);
    }

    #[test]
    fn parse_errors_are_cached() {
        let mut ctx = FileContext::new("bad.c", "void broken( {\n");
        let opts = ParseOptions {
            pattern: false,
            lang: Lang::C,
        };
        let e1 = ctx.parse(opts).unwrap_err();
        let e2 = ctx.parse(opts).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(ctx.parses(), 1);
    }

    #[test]
    fn atom_pin_gathers_each_asked_symbol_once_and_keeps_dense_atoms_walking() {
        let mut text = String::from("/* rare(0) */ void f(void) { rare(1); common(2); }\n");
        for i in 0..40 {
            text.push_str(&format!("void g{i}(int a) {{ common(a); }}\n"));
        }
        let mut ctx = FileContext::new("a.c", text.as_str());
        let (rare, common) = (Symbol::intern("rare"), Symbol::intern("common"));
        // No parse yet: nothing to pin.
        assert!(ctx.atom_pin(&[rare]).is_none());
        ctx.parse(ParseOptions::c()).unwrap();
        let pin = ctx.atom_pin(&[common, rare]).unwrap();
        // The rarest atom's identifier tokens (the comment holds none).
        let at = text.find("rare(1)").unwrap() as u32;
        assert_eq!(pin.offsets, [at]);
        let parsed = ctx.parsed.as_ref().unwrap();
        assert_eq!(parsed.occurrences.len(), 2);
        assert_eq!(parsed.occurrences[&common].len(), 41);
        // `common` is one in six identifier tokens: too dense to pin.
        assert!(ctx.atom_pin(&[common]).is_none());
        // An atom that never occurs pins to nothing.
        let pin = ctx.atom_pin(&[Symbol::intern("absent")]).unwrap();
        assert!(pin.offsets.is_empty());
        assert!(ctx.shared_time() > Duration::ZERO);
    }

    #[test]
    fn resolver_and_suppressions_are_shared() {
        let mut ctx = FileContext::new("a.c", "int x; // spatch-ignore\n");
        let r1 = ctx.resolver();
        let r2 = ctx.resolver();
        assert!(Arc::ptr_eq(&r1, &r2));
        let s1 = ctx.suppressions();
        let s2 = ctx.suppressions();
        assert!(Arc::ptr_eq(&s1, &s2));
    }
}
