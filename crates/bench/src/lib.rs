//! Shared harness for the experiment binaries that regenerate the
//! paper's tables and figures and drive the fuzzing, sockets and scaling
//! sweeps.
//!
//! [`repro`] is every deterministic table: the paper's evaluation, the
//! service-workload sweep, the modeled-cost grid and the fault-injection
//! grids, one table of experiments behind the one `repro` binary
//! (`repro <name>`; see DESIGN.md §3 for the index), its outputs
//! committed under `results/repro/`. The other binaries in `src/bin/`
//! each drive one harness of their own.
//!
//! Scale control: experiments run the paper-shaped scenario (400 ranks,
//! ×24 overdecomposition, 1400 steps) by default; set
//! `TEMPERED_QUICK=1` to run a reduced configuration for smoke testing.

pub mod repro;
pub mod sockets;

/// Whether quick (reduced-scale) mode was requested via `TEMPERED_QUICK`.
pub fn quick_mode() -> bool {
    std::env::var("TEMPERED_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Write one artifact under `results/` (`name` may name a
/// subdirectory), creating directories on demand, and announce it on
/// stdout. Returns the path written.
pub fn write_results(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::path::Path::new("results").join(name);
    std::fs::create_dir_all(path.parent().expect("under results/")).expect("create results/");
    std::fs::write(&path, contents).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
    path
}
