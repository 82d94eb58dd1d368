//! End-to-end reproduction of every Section-3 use case of the paper
//! (UC1–UC11 in DESIGN.md): each test writes the paper's semantic patch
//! in our SMPL dialect, applies it to a realistic target file, and checks
//! the enacted transformation.

use cocci_core::Patcher;
use cocci_examples::timed;
use cocci_smpl::parse_semantic_patch;

fn apply(patch: &str, target: &str) -> String {
    let sp = parse_semantic_patch(patch).unwrap_or_else(|e| panic!("patch parse: {e}"));
    let mut p = Patcher::new(&sp).unwrap_or_else(|e| panic!("patch compile: {e}"));
    // `timed` comes from the cocci-examples library crate; routing every
    // use-case apply through it keeps the examples' public API exercised
    // from the test crate (the packaging contract of `examples/lib.rs`).
    let (out, _secs) = timed(|| p.apply("target.c", target));
    out.unwrap_or_else(|e| panic!("apply: {e}"))
        .unwrap_or_else(|| panic!("patch did not change the target:\n{target}"))
}

fn apply_no_change(patch: &str, target: &str) -> Option<String> {
    let sp = parse_semantic_patch(patch).unwrap();
    let mut p = Patcher::new(&sp).unwrap();
    p.apply("target.c", target).unwrap()
}

// ---------------------------------------------------------------- UC1

const LIKWID_PATCH: &str = r#"
@@ @@
#include <omp.h>
+ #include <likwid-marker.h>

@@ @@
#pragma omp ...
{
+ LIKWID_MARKER_START(__func__);
...
+ LIKWID_MARKER_STOP(__func__);
}
"#;

#[test]
fn uc1_likwid_instrumentation() {
    let target = r#"#include <omp.h>
#include <math.h>

void daxpy(int n, double a, double *x, double *y) {
#pragma omp parallel
{
    for (int i = 0; i < n; ++i)
        y[i] += a * x[i];
}
}
"#;
    let out = apply(LIKWID_PATCH, target);
    // Header inserted right after the omp include.
    let omp = out.find("#include <omp.h>").unwrap();
    let lik = out.find("#include <likwid-marker.h>").unwrap();
    let math = out.find("#include <math.h>").unwrap();
    assert!(omp < lik && lik < math, "{out}");
    // Markers bracket the parallel block.
    let start = out.find("LIKWID_MARKER_START(__func__);").unwrap();
    let stop = out.find("LIKWID_MARKER_STOP(__func__);").unwrap();
    let loop_pos = out.find("for (int i").unwrap();
    assert!(start < loop_pos && loop_pos < stop, "{out}");
}

#[test]
fn uc1_does_not_touch_files_without_openmp() {
    let target = "#include <stdio.h>\nvoid f(void) { puts(\"x\"); }\n";
    assert!(apply_no_change(LIKWID_PATCH, target).is_none());
}

// ---------------------------------------------------------------- UC2

const VARIANT_PATCH: &str = r#"
@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier f512 = "avx512_" ## f;
fresh identifier f10 = "avx10_" ## f;
@@
+ T f512 (PL) { SL }
+ T f10 (PL) { SL }
+ #pragma omp declare variant(f512) match(device={isa("core-avx512")})
+ #pragma omp declare variant(f10) match(device={isa("core-avx10")})
T f (PL) { SL }
"#;

#[test]
fn uc2_declare_variant_cloning() {
    let target = r#"double kernel_dot(const double *a, const double *b, int n) {
    double s = 0.0;
    for (int i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}

void unrelated_helper(int n) {
    (void)n;
}
"#;
    let out = apply(VARIANT_PATCH, target);
    assert!(
        out.contains("double avx512_kernel_dot (const double *a, const double *b, int n)"),
        "{out}"
    );
    assert!(out.contains("double avx10_kernel_dot"), "{out}");
    assert!(
        out.contains(
            "#pragma omp declare variant(avx512_kernel_dot) match(device={isa(\"core-avx512\")})"
        ),
        "{out}"
    );
    assert!(
        out.contains("#pragma omp declare variant(avx10_kernel_dot)"),
        "{out}"
    );
    // Clones appear before the base function.
    let clone = out.find("avx512_kernel_dot (").unwrap();
    let base = out.find("double kernel_dot(").unwrap();
    assert!(clone < base, "{out}");
    // The helper is untouched (its name does not match the regex).
    assert!(!out.contains("avx512_unrelated_helper"), "{out}");
    // Clone bodies replicate the original statements.
    assert_eq!(out.matches("s += a[i] * b[i];").count(), 3, "{out}");
}

// ---------------------------------------------------------------- UC3

const MULTIVERSION_PATCH: &str = r#"
@@
identifier f;
type T;
@@
__attribute__((target(...,"avx512",...)))
T f(...)
{
+ avx512_specific_setup();
...
}
"#;

#[test]
fn uc3_function_multiversioning_attribute() {
    let target = r#"__attribute__((target("avx512")))
double norm(const double *x, int n) {
    double s = 0;
    for (int i = 0; i < n; ++i) s += x[i] * x[i];
    return s;
}

__attribute__((target("default")))
double norm_default(const double *x, int n) {
    return x[0] * n;
}
"#;
    let out = apply(MULTIVERSION_PATCH, target);
    // Setup call inserted at the top of the avx512 body only.
    assert_eq!(out.matches("avx512_specific_setup();").count(), 1, "{out}");
    let setup = out.find("avx512_specific_setup();").unwrap();
    let avx512_body = out.find("double s = 0;").unwrap();
    assert!(setup < avx512_body, "{out}");
    let default_fn = out.find("norm_default").unwrap();
    assert!(setup < default_fn, "{out}");
}

// ---------------------------------------------------------------- UC4

const BLOAT_PATCH: &str = r#"
@c@
type T;
function f;
parameter list PL;
@@
- __attribute__((target( \( "avx512" \| "avx2" \) )))
- T f(PL) { ... }

@d depends on c@
type c.T;
function c.f;
parameter list c.PL;
@@
- __attribute__((target("default")))
T f(PL) { ... }
"#;

#[test]
fn uc4_bloat_and_clone_removal() {
    let target = r#"__attribute__((target("avx512")))
double dot(const double *a, const double *b, int n) {
    return avx512_impl(a, b, n);
}
__attribute__((target("avx2")))
double dot(const double *a, const double *b, int n) {
    return avx2_impl(a, b, n);
}
__attribute__((target("default")))
double dot(const double *a, const double *b, int n) {
    double s = 0;
    for (int i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}
"#;
    let out = apply(BLOAT_PATCH, target);
    assert!(!out.contains("avx512_impl"), "{out}");
    assert!(!out.contains("avx2_impl"), "{out}");
    assert!(!out.contains("__attribute__"), "{out}");
    // The default implementation's body survives.
    assert!(
        out.contains("double dot(const double *a, const double *b, int n)"),
        "{out}"
    );
    assert!(out.contains("s += a[i] * b[i];"), "{out}");
}

#[test]
fn uc4_keeps_the_default_attribute_of_another_overload() {
    // The removed clone's parameter list is the `double` overload's, so
    // only that overload loses `default`.
    let target = r#"__attribute__((target("avx512")))
double dot(const double *a, const double *b, int n) {
    return avx512_impl(a, b, n);
}
__attribute__((target("default")))
double dot(const double *a, const double *b, int n) {
    double s = 0;
    for (int i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}
__attribute__((target("default")))
double dot(const float *a, const float *b, int n) {
    double s = 0;
    for (int i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
}
"#;
    let out = apply(BLOAT_PATCH, target);
    assert!(!out.contains("avx512_impl"), "{out}");
    assert_eq!(out.matches("__attribute__").count(), 1, "{out}");
    assert!(
        out.contains("__attribute__((target(\"default\")))\ndouble dot(const float *a"),
        "{out}"
    );
}

// ---------------------------------------------------------------- UC5

const UNROLL_P0_PATCH: &str = r#"
@p0@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
< l ;
- i+=k
+ ++i
)
{
\( A \& i+0 \) \(
- B \& i+1
\) \(
- C \& i+2
\) \(
- D \& i+3
\)
}
"#;

#[test]
fn uc5_unroll_removal_p0() {
    let target = r#"void scale(int n, double a, double *x, double *y) {
    for (int i = 0; i + 3 < n; i += 4)
    {
        y[i+0] = a * x[i+0];
        y[i+1] = a * x[i+1];
        y[i+2] = a * x[i+2];
        y[i+3] = a * x[i+3];
    }
}
"#;
    let out = apply(UNROLL_P0_PATCH, target);
    assert!(out.contains("#pragma omp unroll partial(4)"), "{out}");
    assert!(out.contains("++i"), "{out}");
    assert!(!out.contains("i += 4"), "{out}");
    assert!(out.contains("y[i+0] = a * x[i+0];"), "{out}");
    assert!(!out.contains("y[i+1]"), "{out}");
    assert!(!out.contains("y[i+2]"), "{out}");
    assert!(!out.contains("y[i+3]"), "{out}");
}

const UNROLL_P1_R1_PATCH: &str = r#"
@p1@
type T;
identifier i,l;
constant k={4};
statement A,B,C,D;
@@
for (T i=0; i+k-1 < l; i+=k)
{
\( A \& i+0 \) \( B \&
- i+1
+ i+0
\) \( C \&
- i+2
+ i+0
\) \( D \&
- i+3
+ i+0
\)
}

@r1@
type T;
identifier i,l;
constant k={4};
statement p1.A;
@@
+ #pragma omp unroll partial(4)
for (T i=0; i
- +k-1
< l ;
- i+=k
+ ++i
)
{
A
- A A A
}
"#;

#[test]
fn uc5_unroll_removal_p1_r1() {
    let target = r#"void scale(int n, double a, double *x, double *y) {
    for (int i = 0; i + 3 < n; i += 4)
    {
        y[i+0] = a * x[i+0];
        y[i+1] = a * x[i+1];
        y[i+2] = a * x[i+2];
        y[i+3] = a * x[i+3];
    }
}
"#;
    let out = apply(UNROLL_P1_R1_PATCH, target);
    assert!(out.contains("#pragma omp unroll partial(4)"), "{out}");
    assert!(out.contains("++i"), "{out}");
    assert_eq!(out.matches("y[i+0] = a * x[i+0];").count(), 1, "{out}");
    assert!(!out.contains("i+1"), "{out}");
    assert!(!out.contains("i+2"), "{out}");
    assert!(!out.contains("i+3"), "{out}");
}

#[test]
fn uc5_p1_r1_leaves_non_unrolled_loops_alone() {
    // Statements that are NOT identical modulo the index offset: p1 must
    // not fire as a complete set, so r1 cannot match either.
    let target = r#"void mix(int n, double *x, double *y) {
    for (int i = 0; i + 3 < n; i += 4)
    {
        y[i+0] = x[i+0];
        y[i+1] = 2 * x[i+1];
        q[i+2] = x[i+2];
        y[i+3] = x[i+3] + 1;
    }
}
"#;
    let sp = parse_semantic_patch(UNROLL_P1_R1_PATCH).unwrap();
    let mut p = Patcher::new(&sp).unwrap();
    let out = p.apply("t.c", target).unwrap();
    if let Some(o) = &out {
        // p1 may normalize indices, but r1 must not fire: all four
        // statements are still present.
        assert!(o.contains("2 * x[i+0]") || o.contains("2 * x[i+1]"), "{o}");
        assert_eq!(o.matches("q[").count(), 1, "{o}");
        assert!(!o.contains("#pragma omp unroll"), "{o}");
    }
}

// ---------------------------------------------------------------- UC6

const MDSPAN_PATCH: &str = r#"
#spatch --c++=23
@tomultiindex@
symbol a;
expression x,y,z;
@@
- a[x][y][z]
+ a[x, y, z]
"#;

#[test]
fn uc6_multi_index_rewrite() {
    let target = r#"void stencil(int n) {
    for (int i = 1; i + 1 < n; ++i)
        a[i][j][k] = a[i-1][j][k] + a[i+1][j][k];
    b[i][j][k] = 0;
}
"#;
    let out = apply(MDSPAN_PATCH, target);
    assert!(out.contains("a[i, j, k]"), "{out}");
    assert!(out.contains("a[i-1, j, k]"), "{out}");
    assert!(out.contains("a[i+1, j, k]"), "{out}");
    // Only the array named `a` is rewritten (symbol semantics).
    assert!(out.contains("b[i][j][k]"), "{out}");
}

// ---------------------------------------------------------------- UC7

const CUDA_HIP_PATCH: &str = r#"
@initialize:python@ @@
C2HF = { "curand_uniform_double": "rocrand_uniform_double" }
C2HT = { "__half": "rocblas_half" }

@cfe@
identifier fn;
expression list el;
position p;
@@
fn@p(el)

@script:python cf2hf@
fn << cfe.fn;
nf;
@@
coccinelle.nf = cocci.make_ident(C2HF[fn]);

@hfe@
identifier cfe.fn;
identifier cf2hf.nf;
position cfe.p;
@@
- fn@p
+ nf
(...)

@cte@
type c_t;
identifier i;
@@
c_t i;

@script:python ct2hf@
c_t << cte.c_t;
h_t;
@@
coccinelle.h_t = cocci.make_type(C2HT[c_t]);

@hte@
type ct2hf.h_t;
type cte.c_t;
identifier cte.i;
@@
- c_t i;
+ h_t i;
"#;

#[test]
fn uc7_cuda_to_hip_dictionaries() {
    let target = r#"void init_rng(double *out, int tid) {
    __half h;
    double r;
    r = curand_uniform_double(rng_state);
    out[tid] = r;
    keep_this_call(tid);
}
"#;
    let out = apply(CUDA_HIP_PATCH, target);
    assert!(out.contains("rocrand_uniform_double"), "{out}");
    assert!(!out.contains("curand_uniform_double"), "{out}");
    assert!(out.contains("rocblas_half h;"), "{out}");
    assert!(!out.contains("__half"), "{out}");
    // Functions without a dictionary entry are untouched.
    assert!(out.contains("keep_this_call(tid);"), "{out}");
}

// ---------------------------------------------------------------- UC8

const CHEVRON_PATCH: &str = r#"
#spatch --c++
@@
identifier k;
expression b,t,x,y;
expression list el;
@@
- k<<<b,t,x,y>>>(el)
+ hipLaunchKernelGGL(k,b,t,x,y,el)
"#;

#[test]
fn uc8_triple_chevron_to_hip_launch() {
    let target = r#"void launch(int n, double *xs, double *ys) {
    saxpy<<<grid, block, 0, stream>>>(n, 2.0, xs, ys);
}
"#;
    let out = apply(CHEVRON_PATCH, target);
    assert!(
        out.contains("hipLaunchKernelGGL(saxpy,grid,block,0,stream,n, 2.0, xs, ys)"),
        "{out}"
    );
    assert!(!out.contains("<<<"), "{out}");
}

// ---------------------------------------------------------------- UC9

const ACC_OMP_PATCH: &str = r#"
@moa@
pragmainfo pi;
@@
#pragma acc pi

@script:python o2o@
pi << moa.pi;
po;
@@
coccinelle.po = cocci.make_pragmainfo("target teams " + pi);

@depends on o2o@
pragmainfo moa.pi;
pragmainfo o2o.po;
@@
- #pragma acc pi
+ #pragma omp po
"#;

#[test]
fn uc9_openacc_to_openmp() {
    let target = r#"void compute(int n, double *a) {
#pragma acc parallel loop
    for (int i = 0; i < n; ++i)
        a[i] = 2.0 * a[i];
}
"#;
    let out = apply(ACC_OMP_PATCH, target);
    assert!(
        out.contains("#pragma omp target teams parallel loop"),
        "{out}"
    );
    assert!(!out.contains("#pragma acc"), "{out}");
    // The loop itself is untouched.
    assert!(out.contains("a[i] = 2.0 * a[i];"), "{out}");
}

// ---------------------------------------------------------------- UC10

const STL_FIND_PATCH: &str = r#"
#spatch --c++
@rl@
type T;
constant kc;
identifier elem,result,arrid;
@@
- bool result = false;
...
- for ( T &elem : arrid )
- if ( \( elem == kc \| kc == elem \) )
- {
- ...
- result = true;
- break;
- }
+ const bool result = (find(begin(arrid),end(arrid),kc) != end(arrid));

@ah depends on rl@
@@
#include <iostream>
+ #include <algorithm>
+ #include <functional>
"#;

#[test]
fn uc10_raw_loop_to_std_find() {
    let target = r#"#include <iostream>

int lookup(int n) {
    bool found = false;
    for ( int &v : values )
    if ( v == 42 )
    {
        log_hit(v);
        found = true;
        break;
    }
    return found ? 1 : 0;
}
"#;
    let out = apply(STL_FIND_PATCH, target);
    assert!(
        out.contains("const bool found = (find(begin(values),end(values),42) != end(values));"),
        "{out}"
    );
    assert!(!out.contains("break;"), "{out}");
    assert!(!out.contains("log_hit"), "{out}");
    assert!(out.contains("#include <algorithm>"), "{out}");
    assert!(out.contains("#include <functional>"), "{out}");
    assert!(out.contains("return found ? 1 : 0;"), "{out}");
}

// ---------------------------------------------------------------- UC11

const PRAGMA_INJECT_PATCH: &str = r#"
@pragma_inject@
identifier i =~ "rsb__BCSR_spmv_sasa_double_complex_[CH]__t[NTC]_r1_c1_uu_s[HS]_dE_uG";
type T;
@@
+ #pragma GCC push_options
+ #pragma GCC optimize "-O3", "-fno-tree-loop-vectorize"
T i(...)
{
...
}
+ #pragma GCC pop_options
"#;

#[test]
fn uc11_compiler_bug_workaround() {
    let target = r#"int rsb__BCSR_spmv_sasa_double_complex_C__tN_r1_c1_uu_sH_dE_uG(const void *a) {
    return spmv_inner(a);
}

int rsb__BCSR_spmv_other_kernel(const void *a) {
    return spmv_inner(a);
}
"#;
    let out = apply(PRAGMA_INJECT_PATCH, target);
    let push = out.find("#pragma GCC push_options").unwrap();
    let opt = out
        .find("#pragma GCC optimize \"-O3\", \"-fno-tree-loop-vectorize\"")
        .unwrap();
    let affected = out
        .find("rsb__BCSR_spmv_sasa_double_complex_C__tN")
        .unwrap();
    let pop = out.find("#pragma GCC pop_options").unwrap();
    let unaffected = out.find("rsb__BCSR_spmv_other_kernel").unwrap();
    assert!(push < opt && opt < affected && affected < pop, "{out}");
    assert!(pop < unaffected, "{out}");
    assert_eq!(out.matches("push_options").count(), 1, "{out}");
}
