//! `cocci-script`: interpreter for script rules.
//!
//! Coccinelle embeds Python/OCaml for its `@script:python@` rules; this
//! workspace has no CPython, so we interpret the Python *subset* those
//! rules actually use (see DESIGN.md, substitution table). Supported:
//!
//! * assignments `name = expr` and `coccinelle.name = expr`
//! * string and integer literals, names
//! * dict literals `{ "k": "v", … }` (multi-line)
//! * subscripts `d[k]` / `l[0]`, attribute access `a.b`, calls `f(x, y)`
//! * `+` (string concatenation / integer addition)
//! * the `cocci` builtins: `make_ident`, `make_type`, `make_pragmainfo`,
//!   `make_expr` (all wrap a string for the engine to splice), plus
//!   `str`, `len`, `print` (to stderr)
//! * the `coccilib.report` subset: inherited position metavariables
//!   arrive as lists of position objects (`p[0].file`, `p[0].line`,
//!   `p[0].column`), and `coccilib.report.print_report(p[0], msg)`
//!   records a finding the engine surfaces through report mode
//! * `\`-continuations, `#`/`//` comments, optional trailing `;`
//!
//! Execution model matches Coccinelle's: `@initialize@` blocks populate a
//! *global* environment once; each `@script@` rule runs once per match
//! environment of its parent rules, reading inherited metavariables and
//! writing new bindings through `coccinelle.<name> = …`. A runtime error
//! (for instance a dictionary lookup miss, the idiomatic way the CUDA→HIP
//! patch skips functions it has no translation for) makes that
//! environment produce no output, which the engine treats as "rule does
//! not apply here".

use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;

/// A script value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (also the representation of idents/types/pragmainfo made
    /// by the `cocci.make_*` builtins).
    Str(String),
    /// An integer.
    Int(i64),
    /// A dictionary with string keys.
    Dict(BTreeMap<String, Value>),
    /// A list (chiefly: the list of position objects an inherited
    /// `position` metavariable arrives as).
    List(Vec<Value>),
    /// A source position (`p[0]` of an inherited position metavariable)
    /// with `.file`, `.line`, `.column` (and `.line_end`/`.column_end`)
    /// attributes.
    Pos(PosInfo),
    /// Python's `None`.
    None,
}

/// The payload of a position object handed to script rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosInfo {
    /// Target file name.
    pub file: String,
    /// 1-based start line.
    pub line: i64,
    /// 1-based start column.
    pub column: i64,
    /// 1-based end line.
    pub line_end: i64,
    /// 1-based end column.
    pub column_end: i64,
}

/// One `coccilib.report.print_report(pos, msg)` call recorded during a
/// script run, for the engine to convert into a finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Where the finding points.
    pub pos: PosInfo,
    /// The authored message.
    pub message: String,
}

impl Value {
    /// Render the value as the text the engine will splice into code.
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Dict(_) => "<dict>".to_string(),
            Value::List(items) => items
                .iter()
                .map(Value::render)
                .collect::<Vec<_>>()
                .join(", "),
            Value::Pos(p) => format!("{}:{}:{}", p.file, p.line, p.column),
            Value::None => "None".to_string(),
        }
    }
}

/// Script runtime/parse error.
#[derive(Debug, Clone)]
pub struct ScriptError {
    /// Description.
    pub message: String,
    /// True for errors that should *skip the environment* rather than
    /// abort the whole patch (missing dict key — the translation-table
    /// idiom).
    pub skip_env: bool,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "script error: {}", self.message)
    }
}

impl std::error::Error for ScriptError {}

/// A parsed script body. A patch parses each of its script bodies once
/// and runs the program for every file and environment.
#[derive(Debug, Clone)]
pub struct Program {
    stmts: Vec<StmtNode>,
}

impl Program {
    /// Parse `code`.
    pub fn parse(code: &str) -> Result<Program, ScriptError> {
        Ok(Program {
            stmts: parse_program(code)?,
        })
    }
}

fn serr(message: impl Into<String>) -> ScriptError {
    ScriptError {
        message: message.into(),
        skip_env: false,
    }
}

/// The interpreter. Holds the global environment shared by all script
/// rules of one semantic patch application.
#[derive(Debug, Default, Clone)]
pub struct Interp {
    globals: BTreeMap<String, Value>,
    reports: Vec<Report>,
}

impl Interp {
    /// Fresh interpreter with empty globals.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read a global (for tests and diagnostics).
    pub fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }

    /// Drain the `coccilib.report.print_report` calls recorded since the
    /// last drain (the engine converts them into findings).
    pub fn take_reports(&mut self) -> Vec<Report> {
        std::mem::take(&mut self.reports)
    }

    /// Run an `@initialize@` (or `@finalize@`) block: statements execute
    /// against the global environment.
    pub fn run_block_program(&mut self, program: &Program) -> Result<(), ScriptError> {
        let mut locals = BTreeMap::new();
        let mut outputs = BTreeMap::new();
        for s in &program.stmts {
            self.exec(s, &mut locals, &mut outputs, true)?;
        }
        Ok(())
    }

    /// Run a script rule body with `inputs` as local bindings. Returns the
    /// `coccinelle.<name>` assignments. `Ok(None)` means the environment
    /// should be skipped (dict-miss idiom).
    pub fn run_program(
        &mut self,
        program: &Program,
        inputs: BTreeMap<String, Value>,
    ) -> Result<Option<BTreeMap<String, Value>>, ScriptError> {
        let mut locals = inputs;
        let mut outputs = BTreeMap::new();
        for s in &program.stmts {
            match self.exec(s, &mut locals, &mut outputs, false) {
                Ok(()) => {}
                Err(e) if e.skip_env => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        Ok(Some(outputs))
    }

    fn exec(
        &mut self,
        stmt: &StmtNode,
        locals: &mut BTreeMap<String, Value>,
        outputs: &mut BTreeMap<String, Value>,
        global_scope: bool,
    ) -> Result<(), ScriptError> {
        match stmt {
            StmtNode::Assign { target, value } => {
                let v = self.eval(value, locals)?;
                match target {
                    Target::Name(n) => {
                        if global_scope {
                            self.globals.insert(n.clone(), v);
                        } else {
                            locals.insert(n.clone(), v);
                        }
                    }
                    Target::Coccinelle(n) => {
                        outputs.insert(n.clone(), v);
                    }
                }
                Ok(())
            }
            StmtNode::Expr(e) => {
                self.eval(e, locals)?;
                Ok(())
            }
        }
    }

    fn eval(
        &mut self,
        e: &ExprNode,
        locals: &BTreeMap<String, Value>,
    ) -> Result<Value, ScriptError> {
        match e {
            ExprNode::Str(s) => Ok(Value::Str(s.clone())),
            ExprNode::Int(i) => Ok(Value::Int(*i)),
            ExprNode::NoneLit => Ok(Value::None),
            ExprNode::Name(n) => locals
                .get(n)
                .or_else(|| self.globals.get(n))
                .cloned()
                .ok_or_else(|| serr(format!("undefined name `{n}`"))),
            ExprNode::Dict(pairs) => {
                let mut m = BTreeMap::new();
                for (k, v) in pairs {
                    let kv = self.eval(k, locals)?;
                    let vv = self.eval(v, locals)?;
                    let key = match kv {
                        Value::Str(s) => s,
                        other => other.render(),
                    };
                    m.insert(key, vv);
                }
                Ok(Value::Dict(m))
            }
            ExprNode::Subscript { base, index } => {
                let b = self.eval(base, locals)?;
                let i = self.eval(index, locals)?;
                match b {
                    Value::Dict(m) => {
                        let key = match &i {
                            Value::Str(s) => s.clone(),
                            other => other.render(),
                        };
                        m.get(&key).cloned().ok_or(ScriptError {
                            message: format!("KeyError: '{key}'"),
                            skip_env: true,
                        })
                    }
                    Value::Str(s) => match i {
                        Value::Int(idx) if idx >= 0 && (idx as usize) < s.len() => {
                            Ok(Value::Str(s[idx as usize..idx as usize + 1].to_string()))
                        }
                        _ => Err(serr("bad string index")),
                    },
                    Value::List(items) => match i {
                        Value::Int(idx) if idx >= 0 && (idx as usize) < items.len() => {
                            Ok(items[idx as usize].clone())
                        }
                        _ => Err(serr("list index out of range")),
                    },
                    other => Err(serr(format!("cannot index {other:?}"))),
                }
            }
            ExprNode::Attr { base, field } => {
                let b = self.eval(base, locals)?;
                match b {
                    Value::Pos(p) => match field.as_str() {
                        "file" => Ok(Value::Str(p.file.clone())),
                        "line" => Ok(Value::Int(p.line)),
                        "column" => Ok(Value::Int(p.column)),
                        "line_end" => Ok(Value::Int(p.line_end)),
                        "column_end" => Ok(Value::Int(p.column_end)),
                        other => Err(serr(format!("position has no attribute `{other}`"))),
                    },
                    other => Err(serr(format!(
                        "attribute `{field}` unsupported on {other:?}"
                    ))),
                }
            }
            ExprNode::Add(a, b) => {
                let av = self.eval(a, locals)?;
                let bv = self.eval(b, locals)?;
                match (av, bv) {
                    (Value::Str(x), Value::Str(y)) => Ok(Value::Str(x + &y)),
                    (Value::Str(x), y) => Ok(Value::Str(x + &y.render())),
                    (x @ Value::Int(_), Value::Str(y)) => Ok(Value::Str(x.render() + &y)),
                    (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x + y)),
                    _ => Err(serr("unsupported `+` operands")),
                }
            }
            ExprNode::Call { func, args } => {
                let mut vals = Vec::new();
                for a in args {
                    vals.push(self.eval(a, locals)?);
                }
                self.call(func, vals)
            }
        }
    }

    fn call(&mut self, func: &FuncRef, args: Vec<Value>) -> Result<Value, ScriptError> {
        let one = |args: &[Value]| -> Result<Value, ScriptError> {
            if args.len() == 1 {
                Ok(args[0].clone())
            } else {
                Err(serr("expected exactly one argument"))
            }
        };
        match func {
            FuncRef::Cocci(name) => match name.as_str() {
                // All make_* builtins wrap their argument as engine text.
                "make_ident" | "make_type" | "make_pragmainfo" | "make_expr" | "make_stmt" => {
                    let v = one(&args)?;
                    Ok(Value::Str(v.render()))
                }
                other => Err(serr(format!("unknown cocci builtin `{other}`"))),
            },
            FuncRef::CoccilibReport(name) => match name.as_str() {
                "print_report" => {
                    let [pos, msg] = args.as_slice() else {
                        return Err(serr("print_report takes (position, message)"));
                    };
                    let Value::Pos(p) = pos else {
                        return Err(serr(
                            "print_report: first argument must be a position (p[0])",
                        ));
                    };
                    self.reports.push(Report {
                        pos: p.clone(),
                        message: msg.render(),
                    });
                    Ok(Value::None)
                }
                other => Err(serr(format!("unknown coccilib.report function `{other}`"))),
            },
            FuncRef::Bare(name) => match name.as_str() {
                "str" => Ok(Value::Str(one(&args)?.render())),
                "len" => match one(&args)? {
                    Value::Str(s) => Ok(Value::Int(s.len() as i64)),
                    Value::Dict(d) => Ok(Value::Int(d.len() as i64)),
                    Value::List(l) => Ok(Value::Int(l.len() as i64)),
                    _ => Err(serr("len() of unsupported value")),
                },
                "print" => {
                    // One write, and a failed one is dropped: a print that
                    // cannot reach stderr does not fail the file.
                    let text: Vec<String> = args.iter().map(Value::render).collect();
                    let line = format!("{}\n", text.join(" "));
                    let _ = std::io::stderr().write_all(line.as_bytes());
                    Ok(Value::None)
                }
                other => Err(serr(format!("unknown function `{other}`"))),
            },
        }
    }
}

// ---- parsing ----

#[derive(Debug, Clone)]
enum StmtNode {
    Assign { target: Target, value: ExprNode },
    Expr(ExprNode),
}

#[derive(Debug, Clone)]
enum Target {
    Name(String),
    Coccinelle(String),
}

#[derive(Debug, Clone)]
enum ExprNode {
    Str(String),
    Int(i64),
    NoneLit,
    Name(String),
    Dict(Vec<(ExprNode, ExprNode)>),
    Subscript {
        base: Box<ExprNode>,
        index: Box<ExprNode>,
    },
    Attr {
        base: Box<ExprNode>,
        field: String,
    },
    Add(Box<ExprNode>, Box<ExprNode>),
    Call {
        func: FuncRef,
        args: Vec<ExprNode>,
    },
}

#[derive(Debug, Clone)]
enum FuncRef {
    /// `cocci.<name>(…)`
    Cocci(String),
    /// `coccilib.report.<name>(…)`
    CoccilibReport(String),
    /// bare `<name>(…)`
    Bare(String),
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Str(String),
    Int(i64),
    Name(String),
    Punct(char),
}

fn tokenize(code: &str) -> Result<Vec<Tok>, ScriptError> {
    let b = code.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'\\' if i + 1 < b.len() && b[i + 1] == b'\n' => i += 2,
            b'#' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                let quote = c;
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= b.len() {
                        return Err(serr("unterminated string"));
                    }
                    if b[i] == b'\\' && i + 1 < b.len() {
                        s.push(match b[i + 1] {
                            b'n' => '\n',
                            b't' => '\t',
                            other => other as char,
                        });
                        i += 2;
                        continue;
                    }
                    if b[i] == quote {
                        i += 1;
                        break;
                    }
                    s.push(b[i] as char);
                    i += 1;
                }
                out.push(Tok::Str(s));
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let v: i64 = code[start..i]
                    .parse()
                    .map_err(|_| serr("bad integer literal"))?;
                out.push(Tok::Int(v));
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.push(Tok::Name(code[start..i].to_string()));
            }
            b'=' | b'+' | b'[' | b']' | b'{' | b'}' | b'(' | b')' | b',' | b':' | b'.' | b';' => {
                out.push(Tok::Punct(c as char));
                i += 1;
            }
            other => {
                return Err(serr(format!(
                    "unexpected character `{}` in script",
                    other as char
                )))
            }
        }
    }
    Ok(out)
}

struct P {
    toks: Vec<Tok>,
    pos: usize,
}

impl P {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, p: char) -> bool {
        if self.peek() == Some(&Tok::Punct(p)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: char) -> Result<(), ScriptError> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(serr(format!("expected `{p}`, found {:?}", self.peek())))
        }
    }

    fn stmt(&mut self) -> Result<StmtNode, ScriptError> {
        // Lookahead for `name = …` / `coccinelle.name = …` assignment.
        if let Some(Tok::Name(n)) = self.peek().cloned() {
            if n == "coccinelle" && self.toks.get(self.pos + 1) == Some(&Tok::Punct('.')) {
                if let (Some(Tok::Name(field)), Some(&Tok::Punct('='))) = (
                    self.toks.get(self.pos + 2).cloned(),
                    self.toks.get(self.pos + 3),
                ) {
                    self.pos += 4;
                    let value = self.expr()?;
                    self.eat(';');
                    return Ok(StmtNode::Assign {
                        target: Target::Coccinelle(field),
                        value,
                    });
                }
            }
            if self.toks.get(self.pos + 1) == Some(&Tok::Punct('=')) {
                self.pos += 2;
                let value = self.expr()?;
                self.eat(';');
                return Ok(StmtNode::Assign {
                    target: Target::Name(n),
                    value,
                });
            }
        }
        let e = self.expr()?;
        self.eat(';');
        Ok(StmtNode::Expr(e))
    }

    fn expr(&mut self) -> Result<ExprNode, ScriptError> {
        let mut lhs = self.postfix()?;
        while self.eat('+') {
            let rhs = self.postfix()?;
            lhs = ExprNode::Add(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn postfix(&mut self) -> Result<ExprNode, ScriptError> {
        let mut e = self.primary()?;
        loop {
            if self.eat('[') {
                let idx = self.expr()?;
                self.expect(']')?;
                e = ExprNode::Subscript {
                    base: Box::new(e),
                    index: Box::new(idx),
                };
            } else if self.eat('.') {
                let field = match self.bump() {
                    Some(Tok::Name(n)) => n,
                    other => return Err(serr(format!("expected attribute name, found {other:?}"))),
                };
                if self.eat('(') {
                    let args = self.args()?;
                    let func = match &e {
                        ExprNode::Name(n) if n == "cocci" || n == "coccinelle" => {
                            FuncRef::Cocci(field)
                        }
                        ExprNode::Attr { base, field: mid }
                            if mid == "report"
                                && matches!(base.as_ref(),
                                            ExprNode::Name(n) if n == "coccilib") =>
                        {
                            FuncRef::CoccilibReport(field)
                        }
                        _ => {
                            return Err(serr(format!(
                                "method calls only supported on `cocci` and \
                                 `coccilib.report`, not `.{field}` here"
                            )))
                        }
                    };
                    e = ExprNode::Call { func, args };
                } else {
                    // Plain attribute access (`p[0].file`, the
                    // `coccilib.report` path prefix); resolved at eval
                    // or consumed by a trailing call.
                    e = ExprNode::Attr {
                        base: Box::new(e),
                        field,
                    };
                }
            } else if self.eat('(') {
                let args = self.args()?;
                let func = match &e {
                    ExprNode::Name(n) => FuncRef::Bare(n.clone()),
                    _ => return Err(serr("only simple function calls supported")),
                };
                e = ExprNode::Call { func, args };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<ExprNode>, ScriptError> {
        let mut args = Vec::new();
        if self.eat(')') {
            return Ok(args);
        }
        loop {
            args.push(self.expr()?);
            if self.eat(',') {
                continue;
            }
            self.expect(')')?;
            break;
        }
        Ok(args)
    }

    fn primary(&mut self) -> Result<ExprNode, ScriptError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(ExprNode::Str(s)),
            Some(Tok::Int(i)) => Ok(ExprNode::Int(i)),
            Some(Tok::Name(n)) if n == "None" => Ok(ExprNode::NoneLit),
            Some(Tok::Name(n)) => Ok(ExprNode::Name(n)),
            Some(Tok::Punct('(')) => {
                let e = self.expr()?;
                self.expect(')')?;
                Ok(e)
            }
            Some(Tok::Punct('{')) => {
                let mut pairs = Vec::new();
                if self.eat('}') {
                    return Ok(ExprNode::Dict(pairs));
                }
                loop {
                    let k = self.expr()?;
                    self.expect(':')?;
                    let v = self.expr()?;
                    pairs.push((k, v));
                    if self.eat(',') {
                        if self.eat('}') {
                            break;
                        }
                        continue;
                    }
                    self.expect('}')?;
                    break;
                }
                Ok(ExprNode::Dict(pairs))
            }
            other => Err(serr(format!("unexpected token {other:?}"))),
        }
    }
}

fn parse_program(code: &str) -> Result<Vec<StmtNode>, ScriptError> {
    let toks = tokenize(code)?;
    let mut p = P { toks, pos: 0 };
    let mut out = Vec::new();
    while p.peek().is_some() {
        out.push(p.stmt()?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse and run in one step, as the tests' texts need.
    trait RunText {
        fn run_block(&mut self, code: &str) -> Result<(), ScriptError>;
        fn run_script(
            &mut self,
            code: &str,
            inputs: &BTreeMap<String, Value>,
        ) -> Result<Option<BTreeMap<String, Value>>, ScriptError>;
    }

    impl RunText for Interp {
        fn run_block(&mut self, code: &str) -> Result<(), ScriptError> {
            self.run_block_program(&Program::parse(code)?)
        }

        fn run_script(
            &mut self,
            code: &str,
            inputs: &BTreeMap<String, Value>,
        ) -> Result<Option<BTreeMap<String, Value>>, ScriptError> {
            self.run_program(&Program::parse(code)?, inputs.clone())
        }
    }

    fn inputs(pairs: &[(&str, &str)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Value::Str(v.to_string())))
            .collect()
    }

    #[test]
    fn initialize_dict_then_lookup() {
        let mut it = Interp::new();
        it.run_block("C2HF = { \"curand_uniform_double\":\n  \"rocrand_uniform_double\" }")
            .unwrap();
        let out = it
            .run_script(
                "coccinelle.nf = cocci.make_ident(C2HF[fn]);",
                &inputs(&[("fn", "curand_uniform_double")]),
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            out.get("nf"),
            Some(&Value::Str("rocrand_uniform_double".into()))
        );
    }

    #[test]
    fn dict_miss_skips_environment() {
        let mut it = Interp::new();
        it.run_block("D = { \"a\": \"b\" }").unwrap();
        let out = it
            .run_script(
                "coccinelle.nf = cocci.make_ident(D[fn]);",
                &inputs(&[("fn", "not_there")]),
            )
            .unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn string_concatenation() {
        let mut it = Interp::new();
        let out = it
            .run_script(
                "coccinelle.lb = \"KOKKOS_LAMBDA(const int i)\" + fb;",
                &inputs(&[("fb", "{ y[i] = a*x[i]; }")]),
            )
            .unwrap()
            .unwrap();
        assert_eq!(
            out.get("lb").unwrap().render(),
            "KOKKOS_LAMBDA(const int i){ y[i] = a*x[i]; }"
        );
    }

    #[test]
    fn make_pragmainfo_hardcoded() {
        let mut it = Interp::new();
        let out = it
            .run_script(
                "coccinelle.po =\n cocci.make_pragmainfo\n (\"kernels copy(a)\");",
                &BTreeMap::new(),
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.get("po").unwrap().render(), "kernels copy(a)");
    }

    #[test]
    fn locals_shadow_globals_and_persist_within_script() {
        let mut it = Interp::new();
        it.run_block("x = \"global\"").unwrap();
        let out = it
            .run_script("x = \"local\"\ncoccinelle.out = x;", &BTreeMap::new())
            .unwrap()
            .unwrap();
        assert_eq!(out.get("out").unwrap().render(), "local");
        assert_eq!(it.global("x").unwrap().render(), "global");
    }

    #[test]
    fn comments_and_continuations() {
        let mut it = Interp::new();
        it.run_block("# leading comment\nT = { \"__half\": \\\n \"rocblas_half\" } // trailing\n")
            .unwrap();
        match it.global("T").unwrap() {
            Value::Dict(d) => assert_eq!(d.get("__half").unwrap().render(), "rocblas_half"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn int_arithmetic_and_builtins() {
        let mut it = Interp::new();
        let out = it
            .run_script(
                "n = 1 + 2\ncoccinelle.s = str(n) + \"_x\";\ncoccinelle.l = len(\"abc\");",
                &BTreeMap::new(),
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.get("s").unwrap().render(), "3_x");
        assert_eq!(out.get("l"), Some(&Value::Int(3)));
    }

    #[test]
    fn undefined_name_is_hard_error() {
        let mut it = Interp::new();
        let r = it.run_script("coccinelle.x = nope;", &BTreeMap::new());
        assert!(r.is_err());
    }

    #[test]
    fn multiline_translation_table() {
        // The full-table idiom from the CUDA→HIP use case.
        let mut it = Interp::new();
        it.run_block(
            "C2HF = {\n  \"cudaMalloc\": \"hipMalloc\",\n  \"cudaFree\": \"hipFree\",\n  \"cudaMemcpy\": \"hipMemcpy\",\n}",
        )
        .unwrap();
        for (c, h) in [
            ("cudaMalloc", "hipMalloc"),
            ("cudaFree", "hipFree"),
            ("cudaMemcpy", "hipMemcpy"),
        ] {
            let out = it
                .run_script(
                    "coccinelle.nf = cocci.make_ident(C2HF[fn]);",
                    &inputs(&[("fn", c)]),
                )
                .unwrap()
                .unwrap();
            assert_eq!(out.get("nf").unwrap().render(), h);
        }
    }

    fn pos(file: &str, line: i64, col: i64) -> Value {
        Value::Pos(PosInfo {
            file: file.into(),
            line,
            column: col,
            line_end: line,
            column_end: col + 7,
        })
    }

    #[test]
    fn print_report_records_findings() {
        let mut it = Interp::new();
        let mut ins = inputs(&[("e", "q + 1")]);
        ins.insert("p".to_string(), Value::List(vec![pos("src/a.c", 3, 5)]));
        let out = it
            .run_script(
                "coccilib.report.print_report(p[0], \"old_api called with \" + e)",
                &ins,
            )
            .unwrap()
            .unwrap();
        assert!(out.is_empty(), "print_report writes no bindings");
        let reports = it.take_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].pos.file, "src/a.c");
        assert_eq!(reports[0].pos.line, 3);
        assert_eq!(reports[0].pos.column, 5);
        assert_eq!(reports[0].message, "old_api called with q + 1");
        assert!(it.take_reports().is_empty(), "drained");
    }

    #[test]
    fn position_attribute_access() {
        let mut it = Interp::new();
        let mut ins = BTreeMap::new();
        ins.insert("p".to_string(), Value::List(vec![pos("b.c", 12, 9)]));
        let out = it
            .run_script(
                "coccilib.report.print_report(p[0], p[0].file + \":\" + str(p[0].line) + \":\" + str(p[0].column))\ncoccinelle.out = str(len(p));",
                &ins,
            )
            .unwrap()
            .unwrap();
        assert_eq!(out.get("out").unwrap().render(), "1");
        let reports = it.take_reports();
        assert_eq!(reports[0].message, "b.c:12:9");
    }

    #[test]
    fn print_report_requires_a_position() {
        let mut it = Interp::new();
        let err = it
            .run_script(
                "coccilib.report.print_report(\"not a pos\", \"msg\")",
                &BTreeMap::new(),
            )
            .unwrap_err();
        assert!(err.message.contains("position"), "{err}");
        // Unknown coccilib.report functions are hard errors too.
        let err = it
            .run_script("coccilib.report.bogus(1)", &BTreeMap::new())
            .unwrap_err();
        assert!(err.message.contains("bogus"), "{err}");
    }

    #[test]
    fn trailing_dict_comma_and_empty_dict() {
        let mut it = Interp::new();
        it.run_block("A = {}\nB = { \"x\": \"y\", }").unwrap();
        assert_eq!(it.global("A"), Some(&Value::Dict(BTreeMap::new())));
        match it.global("B").unwrap() {
            Value::Dict(d) => assert_eq!(d.len(), 1),
            other => panic!("{other:?}"),
        }
    }
}
