//! # dynacut — dynamic and adaptive program customization
//!
//! The primary contribution of the paper: a framework that **disables and
//! re-enables code paths of a running process without interrupting its
//! execution**, by checkpointing the process, rewriting the static
//! checkpoint image, and restoring it (paper §3).
//!
//! The pipeline:
//!
//! 1. **Identify** undesired code with execution-trace diffs
//!    (`dynacut-trace` + `dynacut-analysis`), expressed here as
//!    [`Feature`]s — named sets of basic blocks with an optional redirect
//!    target,
//! 2. **Customize** a live process with [`DynaCut::customize`]: freeze →
//!    CRIU dump → edit images (write `int3`/`0xCC` over block entries,
//!    wipe whole blocks, or unmap pages, per [`BlockPolicy`]) → inject the
//!    synthesised **fault-handler shared library** ([`FaultPolicy`]) and
//!    point the `SIGTRAP` sigaction at it → restore. Live TCP connections
//!    survive,
//! 3. **Re-enable** features later by restoring the original instruction
//!    bytes, recovered from the on-disk binary exactly as the paper does
//!    ("restore the removed features by replacing the `int3` instructions
//!    with the original instruction bytes"),
//! 4. **Validate** with the verifier mode ([`FaultPolicy::Verify`]):
//!    falsely-removed blocks self-heal at run time and are reported back
//!    (paper §3.2.3).
//!
//! [`baselines`] implements RAZOR-like and Chisel-like **static**
//! debloaters used as comparison lines in the paper's Figure 10.
//!
//! ```no_run
//! use dynacut::{DynaCut, Feature, RewritePlan};
//! use dynacut_criu::ModuleRegistry;
//! # fn demo(kernel: &mut dynacut_vm::Kernel, pid: dynacut_vm::Pid,
//! #         registry: ModuleRegistry, feature: Feature) -> Result<(), dynacut::DynacutError> {
//! let mut dynacut = DynaCut::new(registry);
//! let plan = RewritePlan::new().disable(feature);
//! let report = dynacut.customize(kernel, &[pid], &plan)?;
//! println!("service interruption: {} µs", report.timings().total().as_micros());
//! # Ok(())
//! # }
//! ```
//!
//! A narrowing `as` cast is denied crate-wide: a value that may not fit
//! goes through `try_from`, and a cast that truncates on purpose says why
//! in an `#[allow]`.
#![deny(clippy::cast_possible_truncation)]

pub mod baselines;
mod engine;
mod error;
mod feature;
mod handler;
mod original;
mod plan;
mod profile;
mod rewrite;
mod session;

pub use engine::{FleetReport, FleetTotals, PromotedReplica, RolloutDecision, RolloutReport};
pub use error::DynacutError;
pub use feature::Feature;
pub use handler::{build_fault_handler, build_verifier_library, VERIFIER_EVENT_BIT};
pub use original::OriginalText;
pub use plan::{BlockPolicy, Downtime, FaultPolicy, RewritePlan, RolloutPlan};
pub use profile::Profiler;
pub use rewrite::{disable_in_image, enable_in_image, remove_blocks_in_image, DisableOutcome};
pub use session::{CustomizeReport, DynaCut, Timings};
// The flight-recorder vocabulary [`CustomizeReport::phases`] and the
// journal assertions speak, re-exported so report consumers need not
// depend on `dynacut_vm` directly.
pub use dynacut_vm::{EventKind, FlightEvent, FlightRecorder, Phase, RollbackStep};
