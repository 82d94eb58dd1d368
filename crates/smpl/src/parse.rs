//! File-level parsing of semantic patches: rule headers, metavariable
//! declarations, script-rule interfaces, and `#spatch` option lines.

use crate::body::RuleBody;
use crate::{
    Constraint, DepExpr, FreshPart, MetaDecl, MetaDeclKind, Rule, ScriptBlock, ScriptRule,
    SemanticPatch, TransformRule,
};
use cocci_cast::Lang;
use std::fmt;

/// Error produced while parsing a semantic patch file.
#[derive(Debug, Clone)]
pub struct SmplError {
    /// 1-based line number of the problem (0 = whole file).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SmplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "semantic patch error (line {}): {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for SmplError {}

fn err(line: usize, message: impl Into<String>) -> SmplError {
    SmplError {
        line,
        message: message.into(),
    }
}

/// Parse a complete semantic patch file.
pub fn parse_semantic_patch(src: &str) -> Result<SemanticPatch, SmplError> {
    let lines: Vec<&str> = src.lines().collect();
    let mut lang = Lang::C;
    let mut rules = Vec::new();
    let mut i = 0usize;

    while i < lines.len() {
        let line = lines[i];
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with("//") {
            i += 1;
            continue;
        }
        // Option lines: `#spatch --c++=23`, `# spatch --c++`.
        if trimmed.starts_with('#') {
            let rest = trimmed.trim_start_matches('#').trim_start();
            if rest.starts_with("spatch") {
                if rest.contains("--c++") {
                    lang = Lang::Cpp;
                }
                i += 1;
                continue;
            }
            return Err(err(
                i + 1,
                format!("unexpected line outside rule: `{trimmed}`"),
            ));
        }
        if !trimmed.starts_with('@') {
            return Err(err(
                i + 1,
                format!("expected rule header starting with `@`, found `{trimmed}`"),
            ));
        }

        // ---- header ----
        let header_line = trimmed;
        let after_at = &header_line[1..];
        let close = after_at
            .find('@')
            .ok_or_else(|| err(i + 1, "unterminated rule header (missing closing `@`)"))?;
        let header = after_at[..close].trim().to_string();
        let rest_of_line = after_at[close + 1..].trim();
        let header_line_idx = i;
        i += 1;

        // ---- metavariable section ----
        let mut meta_text = String::new();
        if rest_of_line == "@@" || rest_of_line.starts_with("@@") {
            // `@name@ @@` one-liner: empty metavariable section.
        } else if rest_of_line.is_empty() {
            // Metavariable declarations until a line that is exactly `@@`.
            loop {
                if i >= lines.len() {
                    return Err(err(header_line_idx + 1, "rule header without closing `@@`"));
                }
                let l = lines[i].trim();
                i += 1;
                if l == "@@" {
                    break;
                }
                meta_text.push_str(lines[i - 1]);
                meta_text.push('\n');
            }
        } else {
            return Err(err(
                header_line_idx + 1,
                format!("unexpected text after rule header: `{rest_of_line}`"),
            ));
        }

        // ---- body ----
        let body_first = i;
        while i < lines.len() && !lines[i].starts_with('@') {
            i += 1;
        }
        let mut body_lines: Vec<&str> = lines[body_first..i].to_vec();
        while body_lines
            .last()
            .map(|l| l.trim().is_empty())
            .unwrap_or(false)
        {
            body_lines.pop();
        }
        while body_lines
            .first()
            .map(|l| l.trim().is_empty())
            .unwrap_or(false)
        {
            body_lines.remove(0);
        }
        let body_text = body_lines.join("\n");

        // ---- dispatch on header form ----
        if header == "initialize" || header.starts_with("initialize:") {
            let lang_tag = header.split(':').nth(1).unwrap_or("cocci").to_string();
            rules.push(Rule::Initialize(ScriptBlock {
                lang: lang_tag,
                code: body_text,
                header_line: header_line_idx + 1,
            }));
            continue;
        }
        if header == "finalize" || header.starts_with("finalize:") {
            let lang_tag = header.split(':').nth(1).unwrap_or("cocci").to_string();
            rules.push(Rule::Finalize(ScriptBlock {
                lang: lang_tag,
                code: body_text,
                header_line: header_line_idx + 1,
            }));
            continue;
        }
        if header.starts_with("script") {
            // `script:python name [depends on …]`
            let mut parts = header.splitn(2, ':');
            let _ = parts.next();
            let rest = parts.next().unwrap_or("").trim();
            let mut words = rest.split_whitespace();
            let lang_tag = words.next().unwrap_or("cocci").to_string();
            let tail: Vec<&str> = words.collect();
            let (name, depends) = parse_name_and_depends(&tail, header_line_idx + 1)?;
            let (inputs, outputs) = parse_script_interface(&meta_text, header_line_idx + 1)?;
            rules.push(Rule::Script(ScriptRule {
                name,
                lang: lang_tag,
                depends,
                inputs,
                outputs,
                code: body_text,
                header_line: header_line_idx + 1,
            }));
            continue;
        }

        // Transformation rule: `name [depends on …]` or empty.
        let words: Vec<&str> = header.split_whitespace().collect();
        let (name, depends) = parse_name_and_depends(&words, header_line_idx + 1)?;
        let metavars = parse_metavar_decls(&meta_text, header_line_idx + 1)?;
        let body = RuleBody::new(&body_text, name.as_deref(), &metavars, lang)
            .map_err(|m| err(body_first + 1, m))?;
        rules.push(Rule::Transform(TransformRule {
            name,
            depends,
            metavars,
            body,
            header_line: header_line_idx + 1,
        }));
    }

    if rules.is_empty() {
        return Err(err(0, "no rules found in semantic patch"));
    }
    Ok(SemanticPatch { rules, lang })
}

/// Parse `[name] [depends on expr]` from header words.
fn parse_name_and_depends(
    words: &[&str],
    line: usize,
) -> Result<(Option<String>, Option<DepExpr>), SmplError> {
    if words.is_empty() {
        return Ok((None, None));
    }
    let (name, rest) = if words[0] == "depends" {
        (None, words)
    } else {
        (Some(words[0].to_string()), &words[1..])
    };
    if rest.is_empty() {
        return Ok((name, None));
    }
    if rest.len() < 2 || rest[0] != "depends" || rest[1] != "on" {
        return Err(err(
            line,
            format!("malformed rule header near `{}`", rest.join(" ")),
        ));
    }
    let dep = parse_dep_expr(&rest[2..], line)?;
    Ok((name, Some(dep)))
}

/// Parse a dependency expression: `a`, `!a`, `a && b`, `a || b`.
fn parse_dep_expr(words: &[&str], line: usize) -> Result<DepExpr, SmplError> {
    if words.is_empty() {
        return Err(err(line, "empty `depends on` expression"));
    }
    // Split on || first (lowest precedence), then &&.
    let text = words.join(" ");
    let or_parts: Vec<&str> = text.split("||").map(str::trim).collect();
    let mut or_exprs = Vec::new();
    for part in or_parts {
        let and_parts: Vec<&str> = part.split("&&").map(str::trim).collect();
        let mut and_exprs = Vec::new();
        for atom in and_parts {
            if atom.is_empty() {
                return Err(err(line, "malformed `depends on` expression"));
            }
            if let Some(n) = atom.strip_prefix('!') {
                and_exprs.push(DepExpr::Not(n.trim().to_string()));
            } else {
                and_exprs.push(DepExpr::Rule(atom.to_string()));
            }
        }
        or_exprs.push(if and_exprs.len() == 1 {
            and_exprs.pop().unwrap()
        } else {
            DepExpr::And(and_exprs)
        });
    }
    Ok(if or_exprs.len() == 1 {
        or_exprs.pop().unwrap()
    } else {
        DepExpr::Or(or_exprs)
    })
}

/// Parse the metavariable declaration section of a transformation rule.
fn parse_metavar_decls(text: &str, line0: usize) -> Result<Vec<MetaDecl>, SmplError> {
    let mut out = Vec::new();
    for (off, raw_decl) in split_decls(text) {
        let line = line0 + text[..off].matches('\n').count();
        let decl = raw_decl.trim();
        if decl.is_empty() || decl.starts_with("//") {
            continue;
        }
        parse_one_decl(decl, line, &mut out)?;
    }
    Ok(out)
}

/// Split declaration text on `;` while respecting string literals and
/// braces (value sets contain commas, not semicolons, but strings could
/// contain `;`).
fn split_decls(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut start = 0usize;
    let mut in_str = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ';' if !in_str => {
                out.push((start, std::mem::take(&mut cur)));
                start = i + 1;
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push((start, cur));
    }
    out
}

/// Parse one metavariable declaration (without trailing `;`).
fn parse_one_decl(decl: &str, line: usize, out: &mut Vec<MetaDecl>) -> Result<(), SmplError> {
    let words: Vec<&str> = decl.split_whitespace().collect();
    let (kind, rest_idx): (MetaDeclKind, usize) = match words.as_slice() {
        ["fresh", "identifier", ..] => (MetaDeclKind::FreshIdentifier(Vec::new()), 2),
        ["expression", "list", ..] => (MetaDeclKind::ExpressionList, 2),
        ["statement", "list", ..] => (MetaDeclKind::StatementList, 2),
        ["parameter", "list", ..] => (MetaDeclKind::ParameterList, 2),
        ["type", ..] => (MetaDeclKind::Type, 1),
        ["identifier", ..] => (MetaDeclKind::Identifier, 1),
        ["expression", ..] => (MetaDeclKind::Expression, 1),
        ["statement", ..] => (MetaDeclKind::Statement, 1),
        ["constant", ..] => (MetaDeclKind::Constant, 1),
        ["function", ..] => (MetaDeclKind::Function, 1),
        ["symbol", ..] => (MetaDeclKind::Symbol, 1),
        ["position", ..] => (MetaDeclKind::Position, 1),
        ["pragmainfo", ..] => (MetaDeclKind::PragmaInfo, 1),
        _ => {
            return Err(err(
                line,
                format!("unrecognized metavariable declaration `{decl}`"),
            ))
        }
    };
    let rest = words[rest_idx..].join(" ");
    if rest.is_empty() {
        return Err(err(line, format!("missing metavariable name in `{decl}`")));
    }

    if let MetaDeclKind::FreshIdentifier(_) = kind {
        // `name = "lit" ## ref ## "lit" …`
        let (name_part, def) = rest.split_once('=').ok_or_else(|| {
            err(
                line,
                format!("fresh identifier without definition: `{decl}`"),
            )
        })?;
        let name = name_part.trim().to_string();
        let mut parts = Vec::new();
        for piece in def.split("##") {
            let p = piece.trim();
            if let Some(stripped) = p.strip_prefix('"') {
                let lit = stripped
                    .strip_suffix('"')
                    .ok_or_else(|| err(line, format!("unterminated string in `{decl}`")))?;
                parts.push(FreshPart::Lit(lit.to_string()));
            } else if !p.is_empty() {
                parts.push(FreshPart::MetaRef(p.to_string()));
            }
        }
        out.push(MetaDecl {
            name,
            kind: MetaDeclKind::FreshIdentifier(parts),
            constraint: None,
            inherited_from: None,
        });
        return Ok(());
    }

    // Constraint forms:
    //   names =~ "regex"   |   names !~ "regex"   |   name = {a,b}
    let (names_part, constraint) = if let Some(idx) = rest.find("=~") {
        let re = extract_quoted(&rest[idx + 2..])
            .ok_or_else(|| err(line, format!("missing regex in `{decl}`")))?;
        (rest[..idx].to_string(), Some(Constraint::Regex(re)))
    } else if let Some(idx) = rest.find("!~") {
        let re = extract_quoted(&rest[idx + 2..])
            .ok_or_else(|| err(line, format!("missing regex in `{decl}`")))?;
        (rest[..idx].to_string(), Some(Constraint::NotRegex(re)))
    } else if let Some(idx) = rest.find('=') {
        let set_text = rest[idx + 1..].trim();
        let inner = set_text
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err(line, format!("expected `{{…}}` value set in `{decl}`")))?;
        let vals = inner
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        (rest[..idx].to_string(), Some(Constraint::Set(vals)))
    } else {
        (rest, None)
    };

    for name in names_part.split(',') {
        let name = name.trim();
        if name.is_empty() {
            continue;
        }
        let (inherited_from, local) = match name.split_once('.') {
            Some((r, n)) => (Some(r.to_string()), n.to_string()),
            None => (None, name.to_string()),
        };
        out.push(MetaDecl {
            name: local,
            kind: kind.clone(),
            constraint: constraint.clone(),
            inherited_from,
        });
    }
    Ok(())
}

fn extract_quoted(s: &str) -> Option<String> {
    let s = s.trim();
    let rest = s.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Script inputs: `(local, source_rule, remote_var)` triples.
type ScriptInputs = Vec<(String, String, String)>;

/// Parse the interface section of a script rule:
/// `local << rule.remote;` inputs and bare `out;` outputs.
fn parse_script_interface(
    text: &str,
    line0: usize,
) -> Result<(ScriptInputs, Vec<String>), SmplError> {
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for (off, decl) in split_decls(text) {
        let line = line0 + text[..off].matches('\n').count();
        let decl = decl.trim();
        if decl.is_empty() || decl.starts_with("//") {
            continue;
        }
        if let Some((local, remote)) = decl.split_once("<<") {
            let local = local.trim().to_string();
            let remote = remote.trim();
            let (rule, var) = remote
                .split_once('.')
                .ok_or_else(|| err(line, format!("script input must be `rule.var`: `{decl}`")))?;
            inputs.push((local, rule.trim().to_string(), var.trim().to_string()));
        } else {
            let name = decl.to_string();
            if name.split_whitespace().count() != 1 {
                return Err(err(
                    line,
                    format!("unrecognized script interface declaration `{decl}`"),
                ));
            }
            outputs.push(name);
        }
    }
    Ok((inputs, outputs))
}
