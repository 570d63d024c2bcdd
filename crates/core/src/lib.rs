//! # svr-core — core timing models for the SVR reproduction
//!
//! Three cores from Table III of "Scalar Vector Runahead" (MICRO 2024):
//!
//! * [`InOrderCore`] — a 3-wide stall-on-use in-order core modeled after the
//!   Arm Cortex-A510 (32-entry scoreboard, hybrid branch predictor);
//! * the same core with the [`svr::SvrEngine`] attached
//!   ([`InOrderCore::with_svr`]) — the paper's contribution;
//! * [`OooCore`] — a 3-wide out-of-order core with a 32-entry ROB and
//!   16-entry load/store queue, the headline comparison point.
//!
//! All cores share the functional semantics of [`svr_isa`] and the memory
//! hierarchy of [`svr_mem`], so runs are architecturally identical across
//! core models and differ only in timing. Every core implements
//! [`CoreModel`], the one interface drivers use: [`CoreModel::run`] (or
//! [`CoreModel::run_decoded`] in resumable segments), [`CoreModel::stats`]
//! and [`CoreModel::finish`].
//!
//! # Examples
//!
//! ```
//! use svr_core::{CoreModel, InOrderCore, InOrderConfig, SvrConfig};
//! use svr_mem::{MemConfig, MemImage};
//! use svr_isa::{ArchState, Assembler, Reg};
//!
//! let mut asm = Assembler::new("quick");
//! asm.li(Reg::new(1), 1);
//! asm.halt();
//! let program = asm.finish();
//!
//! let mut core = InOrderCore::with_svr(
//!     InOrderConfig::default(),
//!     MemConfig::default(),
//!     SvrConfig::default(),
//! );
//! let mut image = MemImage::new();
//! let mut arch = ArchState::new();
//! core.run(&program, &mut image, &mut arch, u64::MAX).unwrap();
//! assert_eq!(core.stats().retired, 2);
//! let (_mem, invariants) = core.finish();
//! assert!(invariants.is_ok());
//! ```

mod branch;
mod inorder;
mod ooo;
mod pipeline;
mod stats;
pub mod svr;
mod watchdog;

pub use branch::{BranchPredictor, MISPREDICT_PENALTY};
pub use inorder::{InOrderConfig, InOrderCore, Observed, SvrCtx};
pub use ooo::{OooConfig, OooCore};
pub use pipeline::{CoreModel, IssueSlots, Scoreboard};
pub use stats::{CoreStats, CpiStack, StallBucket, SvrActivity};
pub use svr::{bit_budget, BitBudget, LoopBoundMode, RecyclePolicy, SvrConfig};
pub use watchdog::{RunError, WatchdogConfig};
