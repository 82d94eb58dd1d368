//! Shared helpers for the example binaries.

pub mod checks;

use std::time::Instant;

/// Time a closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Print a boxed section header.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}
