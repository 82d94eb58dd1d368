//! Compile-once patch artifacts, shared immutably across driver workers.
//!
//! [`CompiledPatch::compile`] runs every per-patch preparation step exactly
//! once per run — `=~`/`!~` regex constraints are built via `cocci-rex`
//! (compile errors surface here, as a *run-level* error, instead of once
//! per file), the inherited-metavariable graph is resolved, and each
//! transform rule's **prefilter** is extracted (the literal atoms a file
//! must contain for the rule to possibly match, see
//! [`cocci_smpl::prefilter`]). The result is immutable and is shared
//! behind an [`Arc`](std::sync::Arc) by every worker thread; per-application mutable state
//! (script-interpreter globals, statistics) stays in
//! [`Patcher`](crate::Patcher).

use crate::flowmatch::{self, FlowPattern};
use crate::orchestrate::ApplyError;
use cocci_cast::DotsQuant;
use cocci_rex::{MultiLiteral, Regex};
use cocci_smpl::{prefilter, Constraint, Pattern, Rule, SemanticPatch};
use std::collections::{HashMap, HashSet};

/// One prefilterable unit for [`AtomSieve::build`] — a patch (or a scan
/// rule) described by its literal-atom conjunctions.
#[derive(Debug, Clone)]
pub struct SieveUnit {
    /// Pruning is allowed for this unit. `false` (script/initialize/
    /// finalize side effects) makes the unit survive every text.
    pub prunable: bool,
    /// One clause per transform rule: the unit survives a text if *any*
    /// clause's atoms all occur in it. An empty clause (a rule with no
    /// required atoms) makes the unit unprunable too.
    pub clauses: Vec<Vec<String>>,
}

/// A merged multi-pattern prefilter over N units' literal atoms.
///
/// All units' atoms are interned into one [`MultiLiteral`] automaton;
/// a **single scan** of the file text then answers "which units may
/// match?" — replacing N independent `str::contains` sweeps. Small atom
/// sets skip the automaton: for the one-patch/few-atoms case,
/// memchr-accelerated `str::contains` beats a byte-at-a-time DFA walk,
/// so [`CompiledPatch::may_match`] keeps its old cost there.
#[derive(Debug, Clone)]
pub struct AtomSieve {
    /// Interned distinct atoms.
    lits: Vec<String>,
    /// Automaton over `lits` (built only above the contains cutoff).
    scanner: Option<MultiLiteral>,
    /// `(unit, atom ids)` conjunctions.
    clauses: Vec<(u32, Vec<u32>)>,
    /// Units that survive every text (unprunable, or an empty clause).
    always: Vec<u32>,
    /// Total number of units.
    units: usize,
}

/// Below this many distinct atoms the sieve evaluates clauses with
/// plain `str::contains` instead of the automaton.
const SIEVE_CONTAINS_CUTOFF: usize = 4;

impl AtomSieve {
    /// Intern all units' atoms and prepare the merged scanner.
    pub fn build(units: &[SieveUnit]) -> AtomSieve {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut lits: Vec<String> = Vec::new();
        let mut clauses = Vec::new();
        let mut always = Vec::new();
        for (ui, unit) in units.iter().enumerate() {
            let ui = ui as u32;
            if !unit.prunable || unit.clauses.iter().any(|c| c.is_empty()) {
                always.push(ui);
                continue;
            }
            for clause in &unit.clauses {
                let lit_ids = clause
                    .iter()
                    .map(|a| {
                        *ids.entry(a.as_str()).or_insert_with(|| {
                            lits.push(a.clone());
                            (lits.len() - 1) as u32
                        })
                    })
                    .collect();
                clauses.push((ui, lit_ids));
            }
        }
        let scanner = if lits.len() > SIEVE_CONTAINS_CUTOFF {
            Some(MultiLiteral::new(&lits))
        } else {
            None
        };
        AtomSieve {
            lits,
            scanner,
            clauses,
            always,
            units: units.len(),
        }
    }

    /// Which atoms occur in `text` — one automaton pass (or a handful of
    /// `contains` sweeps below the cutoff).
    fn found(&self, text: &str) -> Vec<bool> {
        match &self.scanner {
            Some(m) => m.find_all(text),
            None => self
                .lits
                .iter()
                .map(|l| text.contains(l.as_str()))
                .collect(),
        }
    }

    /// Indices of units that may match `text`, ascending.
    pub fn surviving(&self, text: &str) -> Vec<usize> {
        let mut alive = vec![false; self.units];
        for &u in &self.always {
            alive[u as usize] = true;
        }
        if !self.clauses.is_empty() {
            let found = self.found(text);
            for (u, lit_ids) in &self.clauses {
                if !alive[*u as usize] && lit_ids.iter().all(|&l| found[l as usize]) {
                    alive[*u as usize] = true;
                }
            }
        }
        (0..self.units).filter(|&u| alive[u]).collect()
    }

    /// Does *any* unit survive `text`? Early-exits without touching the
    /// text when an always-on unit exists.
    pub fn any_survivor(&self, text: &str) -> bool {
        if !self.always.is_empty() {
            return true;
        }
        if self.clauses.is_empty() {
            return false;
        }
        let found = self.found(text);
        self.clauses
            .iter()
            .any(|(_, lit_ids)| lit_ids.iter().all(|&l| found[l as usize]))
    }

    /// Number of units the sieve was built from.
    pub fn len(&self) -> usize {
        self.units
    }

    /// True when built from zero units.
    pub fn is_empty(&self) -> bool {
        self.units == 0
    }
}

/// Per-rule compiled artifacts.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Compiled `=~` / `!~` regexes keyed by metavariable name.
    pub regexes: HashMap<String, Regex>,
    /// Prefilter atoms — `Some` for transform rules (possibly empty =
    /// "cannot prefilter"), `None` for script/initialize/finalize rules.
    pub atoms: Option<Vec<String>>,
    /// Lowered CFG path pattern — `Some` for flow-sensitive transform
    /// rules (statement dots) the path engine can route; `None` keeps
    /// the rule on the tree matcher.
    pub flow: Option<FlowPattern>,
    /// The rule's body is pure context (no `-`/`+` lines): its matches
    /// route to findings instead of edits. Always `false` for
    /// script/initialize/finalize rules.
    pub report_only: bool,
}

/// A semantic patch compiled once per run.
#[derive(Debug, Clone)]
pub struct CompiledPatch {
    /// The parsed patch.
    pub patch: SemanticPatch,
    /// Compiled artifacts, one per rule (same indexing as `patch.rules`).
    pub rules: Vec<CompiledRule>,
    /// Rule names that later rules inherit from (metavariables or script
    /// inputs) — only these export environments.
    pub inherited_from: HashSet<String>,
    /// Rule names whose bindings feed a *script* rule. A reporting-only
    /// rule in this set does not auto-emit its generic `matched`
    /// findings: the script authors the real message per site (via
    /// `coccilib.report.print_report`), and emitting both would
    /// double-report every location.
    pub script_inherited_from: HashSet<String>,
    /// Pruning is allowed: the patch consists solely of transform rules.
    /// Script/initialize/finalize rules have per-file side effects (the
    /// interpreter can print), so skipping the pipeline for a pruned file
    /// would make prefiltered and unfiltered runs observably diverge.
    prunable: bool,
    /// Single-unit merged prefilter over this patch's rule atoms —
    /// [`may_match`](CompiledPatch::may_match) is a thin wrapper over it,
    /// and a one-entry rule set reuses it as its merged sieve.
    pub(crate) sieve: AtomSieve,
}

impl CompiledPatch {
    /// Compile `patch`: validate and build all regex constraints, resolve
    /// the inheritance set, and extract per-rule prefilter atoms.
    pub fn compile(patch: &SemanticPatch) -> Result<Self, ApplyError> {
        let mut rules = Vec::with_capacity(patch.rules.len());
        let mut inherited_from = HashSet::new();
        let mut script_inherited_from = HashSet::new();
        let mut has_transform = false;
        let mut has_script = false;
        // Metavariables each *named* earlier rule exports (declarations
        // for transform rules, outputs for script rules) — script inputs
        // referencing anything else would fail on every single file at
        // run time; refuse once here instead.
        let mut exported: HashMap<&str, HashSet<&str>> = HashMap::new();
        for rule in &patch.rules {
            let mut regexes = HashMap::new();
            let mut atoms = None;
            let mut flow = None;
            let mut report_only = false;
            match rule {
                Rule::Transform(t) => {
                    has_transform = true;
                    report_only = t.is_report_only();
                    for mv in &t.metavars {
                        if let Some(Constraint::Regex(re)) | Some(Constraint::NotRegex(re)) =
                            &mv.constraint
                        {
                            let compiled = Regex::new(re).map_err(|e| {
                                ApplyError::new(format!(
                                    "bad regex for metavariable `{}`: {e}",
                                    mv.name
                                ))
                            })?;
                            regexes.insert(mv.name.clone(), compiled);
                        }
                        if let Some(from) = &mv.inherited_from {
                            inherited_from.insert(from.clone());
                        }
                    }
                    // Reuse the regexes compiled above (the prefilter only
                    // reads their guaranteed literal factors).
                    atoms = Some(prefilter::pattern_atoms(
                        &t.body.pattern,
                        &t.metavars,
                        Some(&regexes),
                    ));
                    // Flow-sensitive rules (statement dots) are lowered
                    // once here; rules the path engine cannot express
                    // stay on the tree matcher.
                    if t.is_flow_sensitive() {
                        if let Pattern::Stmts(pats) = &t.body.pattern {
                            flow = flowmatch::lower_pattern(pats);
                        }
                    }
                    // Dots carrying an explicit path quantifier must end
                    // up on the CFG route — an unroutable top-level
                    // pattern, or dots nested inside sub-blocks that
                    // only the tree matcher visits, would silently read
                    // `when exists`/`when strict` as plain sequence
                    // dots. Refuse at compile time instead. (A lowered
                    // pattern has only simple top-level anchors, so it
                    // cannot hide nested dots.)
                    if flow.is_none()
                        && t.body
                            .pattern
                            .statement_dots_quants()
                            .iter()
                            .any(|q| *q != DotsQuant::Default)
                    {
                        return Err(ApplyError::new(format!(
                            "rule {}: `when exists` / `when strict` need a CFG-routable \
                             pattern (simple statement anchors around top-level dots)",
                            t.name.as_deref().unwrap_or("<anonymous>")
                        )));
                    }
                    if let Some(name) = &t.name {
                        exported
                            .entry(name.as_str())
                            .or_default()
                            .extend(t.metavars.iter().map(|m| m.name.as_str()));
                    }
                }
                Rule::Script(s) => {
                    has_script = true;
                    let script_name = s.name.as_deref().unwrap_or("<anonymous>");
                    for (local, from, var) in &s.inputs {
                        match exported.get(from.as_str()) {
                            None => {
                                return Err(ApplyError::new(format!(
                                    "script rule {script_name}: input `{local} << {from}.{var}` \
                                     references unknown rule `{from}` (no earlier rule has that \
                                     name)"
                                )))
                            }
                            Some(vars) if !vars.contains(var.as_str()) => {
                                return Err(ApplyError::new(format!(
                                    "script rule {script_name}: input `{local} << {from}.{var}` \
                                     references undeclared metavariable `{var}` of rule `{from}`"
                                )))
                            }
                            Some(_) => {}
                        }
                        inherited_from.insert(from.clone());
                        script_inherited_from.insert(from.clone());
                    }
                    if let Some(name) = &s.name {
                        exported
                            .entry(name.as_str())
                            .or_default()
                            .extend(s.outputs.iter().map(String::as_str));
                    }
                }
                _ => has_script = true,
            }
            rules.push(CompiledRule {
                regexes,
                atoms,
                flow,
                report_only,
            });
        }
        let prunable = has_transform && !has_script;
        let sieve = AtomSieve::build(&[Self::sieve_unit_of(prunable, &rules)]);
        Ok(CompiledPatch {
            patch: patch.clone(),
            rules,
            inherited_from,
            script_inherited_from,
            prunable,
            sieve,
        })
    }

    fn sieve_unit_of(prunable: bool, rules: &[CompiledRule]) -> SieveUnit {
        SieveUnit {
            prunable,
            clauses: rules
                .iter()
                .filter_map(|r| r.atoms.clone())
                .collect::<Vec<_>>(),
        }
    }

    /// This patch described as one prefilter unit, for merging into a
    /// rule-set-wide [`AtomSieve`] (`spatch scan` prefilters all rules
    /// with a single pass over each file).
    pub fn sieve_unit(&self) -> SieveUnit {
        Self::sieve_unit_of(self.prunable, &self.rules)
    }

    /// Cheap literal pre-scan: can any transform rule of this patch
    /// possibly match `text`? `false` is definitive (the full pipeline
    /// would find zero matches and change nothing, and no script side
    /// effects are lost — patches with script/initialize/finalize rules
    /// always return `true`); `true` means "run the real matcher".
    /// A thin single-unit wrapper over [`AtomSieve`].
    ///
    /// Sound under sequential rule semantics: if every rule's prefilter
    /// rejects the *original* text, no rule matches it, so the text is
    /// never transformed and later rules keep seeing the original text.
    pub fn may_match(&self, text: &str) -> bool {
        self.sieve.any_survivor(text)
    }

    /// Prefilter atoms of rule `ri` (`None` for non-transform rules).
    pub fn rule_atoms(&self, ri: usize) -> Option<&[String]> {
        self.rules.get(ri).and_then(|r| r.atoms.as_deref())
    }

    /// Whether the whole patch is transformation-free (every transform
    /// rule reporting-only) — the condition under which `spatch`
    /// auto-selects report mode.
    pub fn is_report_only(&self) -> bool {
        self.patch.is_report_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocci_smpl::parse_semantic_patch;

    #[test]
    fn compile_collects_regexes_and_atoms() {
        let patch = parse_semantic_patch(
            "@@\ntype T;\nidentifier f =~ \"kernel\";\nparameter list PL;\nstatement list SL;\n@@\nT f (PL) { SL }\n",
        )
        .unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.rules[0].regexes.contains_key("f"));
        assert_eq!(c.rule_atoms(0).unwrap(), ["kernel"]);
        assert!(c.may_match("void my_kernel_fn(int n) {}"));
        assert!(!c.may_match("void helper(int n) {}"));
    }

    #[test]
    fn compile_lowers_flow_sensitive_rules() {
        // Statement dots between simple anchors → CFG route.
        let patch = parse_semantic_patch("@@ @@\n- lock();\n+ lock2();\n...\nunlock();\n").unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.rules[0].flow.is_some());
        // Expression pattern: not flow-sensitive.
        let patch = parse_semantic_patch("@@ @@\n- f(...)\n+ g()\n").unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.rules[0].flow.is_none());
        // Statement dots the engine cannot lower (compound anchor) stay
        // on the tree matcher.
        let patch =
            parse_semantic_patch("@@ @@\n- init();\n+ init2();\n...\nwhile (x) { poll(); }\n")
                .unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.rules[0].flow.is_none());
    }

    #[test]
    fn quantified_dots_on_unroutable_pattern_refuse_at_compile() {
        // `when exists` on a pattern the path engine cannot lower (a
        // compound anchor here) would silently degrade to plain tree
        // dots — refuse at compile time instead.
        let patch = parse_semantic_patch(
            "@@ @@\n- init();\n+ init2();\n... when exists\nwhile (x) { poll(); }\n",
        )
        .unwrap();
        let err = CompiledPatch::compile(&patch).unwrap_err();
        assert!(err.message.contains("when exists"), "{err}");
        // Quantified dots nested inside a braced sub-block never reach
        // the CFG route either — also a compile error.
        let patch = parse_semantic_patch(
            "@@ @@\n- start();\n+ start2();\nif (x) { ... when exists stop(); }\n",
        )
        .unwrap();
        let err = CompiledPatch::compile(&patch).unwrap_err();
        assert!(err.message.contains("when exists"), "{err}");
        // A routable quantified rule still compiles to a flow pattern.
        let patch =
            parse_semantic_patch("@@ @@\n- a();\n+ a2();\n... when exists\nb();\n").unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.rules[0].flow.is_some());
        // Plain nested dots (the LIKWID shape) stay fine on the tree
        // route.
        let patch =
            parse_semantic_patch("@@ @@\n#pragma omp ...\n{\n+ START();\n...\n}\n").unwrap();
        assert!(CompiledPatch::compile(&patch).is_ok());
    }

    #[test]
    fn compile_error_is_run_level() {
        let patch =
            parse_semantic_patch("@@\nidentifier f =~ \"bad(regex\";\n@@\n- f();\n+ g();\n")
                .unwrap();
        let err = CompiledPatch::compile(&patch).unwrap_err();
        assert!(err.message.contains("regex"), "{err}");
    }

    #[test]
    fn script_input_referencing_undeclared_metavar_refuses_at_compile() {
        // Valid inheritance compiles: `r` declares `e`, the script pulls it.
        let ok = parse_semantic_patch(
            "@r@\nexpression e;\nposition p;\n@@\nalpha(e)@p;\n\n\
             @script:python s@\nx << r.e;\n@@\nprint(x)\n",
        )
        .unwrap();
        assert!(CompiledPatch::compile(&ok).is_ok());
        // Undeclared metavariable: used to fail per file at run time.
        let bad_var = parse_semantic_patch(
            "@r@\nexpression e;\n@@\nalpha(e);\n\n\
             @script:python s@\nx << r.missing;\n@@\nprint(x)\n",
        )
        .unwrap();
        let err = CompiledPatch::compile(&bad_var).unwrap_err();
        assert!(
            err.message.contains("undeclared metavariable `missing`"),
            "{err}"
        );
        assert!(err.message.contains("rule `r`"), "{err}");
        // Unknown source rule (includes a later rule: rules run in order).
        let bad_rule = parse_semantic_patch(
            "@script:python s@\nx << r.e;\n@@\nprint(x)\n\n\
             @r@\nexpression e;\n@@\nalpha(e);\n",
        )
        .unwrap();
        let err = CompiledPatch::compile(&bad_rule).unwrap_err();
        assert!(err.message.contains("unknown rule `r`"), "{err}");
        // A script's declared *outputs* are inheritable by later scripts.
        let chain = parse_semantic_patch(
            "@r@\nexpression e;\n@@\nalpha(e);\n\n\
             @script:python a@\nx << r.e;\nout;\n@@\nout = x\n\n\
             @script:python b@\ny << a.out;\n@@\nprint(y)\n",
        )
        .unwrap();
        assert!(CompiledPatch::compile(&chain).is_ok());
    }

    #[test]
    fn multi_rule_prefilter_is_any_rule() {
        let patch =
            parse_semantic_patch("@@ @@\n- alpha();\n+ a2();\n\n@@ @@\n- beta();\n+ b2();\n")
                .unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.may_match("void f(void) { alpha(); }"));
        assert!(c.may_match("void f(void) { beta(); }"));
        assert!(!c.may_match("void f(void) { gamma(); }"));
    }

    #[test]
    fn script_rules_disable_pruning() {
        // Script/initialize rules have per-file side effects; a patch
        // containing any must never prune, or prefiltered and unfiltered
        // runs would observably diverge.
        let patch = parse_semantic_patch(
            "@initialize:python@ @@\nN = { \"a\": \"b\" }\n\n@@ @@\n- alpha();\n+ beta();\n",
        )
        .unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert!(c.may_match("void f(void) { gamma(); }"));
    }

    #[test]
    fn unfilterable_rule_disables_pruning() {
        // A pattern of pure metavariables has no required atoms, so the
        // patch as a whole can never prune.
        let patch = parse_semantic_patch(
            "@@\nexpression e;\n@@\n- f(e);\n+ g(e);\n\n@@\nexpression x, y;\n@@\n- x = y;\n+ y = x;\n",
        )
        .unwrap();
        let c = CompiledPatch::compile(&patch).unwrap();
        assert_eq!(c.rule_atoms(1).unwrap(), &[] as &[String]);
        assert!(c.may_match("anything at all"));
    }
}
