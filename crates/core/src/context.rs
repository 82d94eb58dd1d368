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
//! edits land mid-patch gives the rewritten text a context of its own,
//! which the patch's later rules share. The [`parses`] and
//! [`cfg_builds`] counters exist so tests can assert the "exactly once"
//! property instead of trusting it.
//!
//! [`parses`]: FileContext::parses
//! [`cfg_builds`]: FileContext::cfg_builds

use crate::findings::Resolver;
use crate::flowmatch::CfgCache;
use crate::suppress::SuppressionIndex;
use cocci_cast::ast::TranslationUnit;
use cocci_cast::parser::{parse_translation_unit, NoMeta, ParseOptions};
use cocci_cast::Lang;
use std::sync::Arc;

/// Per-text state built once and shared by every rule run on the text.
/// See the module docs.
pub struct FileContext {
    name: String,
    text: Arc<str>,
    parsed: Option<(Lang, Arc<TranslationUnit>)>,
    parse_err: Option<(Lang, String)>,
    resolver: Option<Arc<Resolver>>,
    suppress: Option<Arc<SuppressionIndex>>,
    cfgs: CfgCache,
    parses: usize,
}

impl FileContext {
    /// A fresh context over one file's text.
    pub fn new(name: impl Into<String>, text: impl Into<Arc<str>>) -> FileContext {
        FileContext {
            name: name.into(),
            text: text.into(),
            parsed: None,
            parse_err: None,
            resolver: None,
            suppress: None,
            cfgs: CfgCache::default(),
            parses: 0,
        }
    }

    /// The file's (display) name.
    pub fn name(&self) -> &str {
        &self.name
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
    /// re-lexing it fifty times.
    pub fn parse(&mut self, opts: ParseOptions) -> Result<Arc<TranslationUnit>, String> {
        if let Some((lang, tu)) = &self.parsed {
            if *lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Ok(Arc::clone(tu));
            }
        }
        if let Some((lang, e)) = &self.parse_err {
            if *lang == opts.lang {
                cocci_trace::count(cocci_trace::Counter::ParseCacheHits, 1);
                return Err(e.clone());
            }
        }
        self.parses += 1;
        match parse_translation_unit(&self.text, opts, &NoMeta) {
            Ok(tu) => {
                let tu = Arc::new(tu);
                self.parsed = Some((opts.lang, Arc::clone(&tu)));
                Ok(tu)
            }
            Err(e) => {
                let msg = e.to_string();
                self.parse_err = Some((opts.lang, msg.clone()));
                Err(msg)
            }
        }
    }

    /// The line/col resolver for the text, built on first use.
    pub fn resolver(&mut self) -> Arc<Resolver> {
        match &self.resolver {
            Some(r) => Arc::clone(r),
            None => {
                let r = Arc::new(Resolver::new(&self.name, &self.text));
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
                let s = Arc::new(SuppressionIndex::parse(&self.text));
                self.suppress = Some(Arc::clone(&s));
                s
            }
        }
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
