#![warn(missing_docs)]

//! Program trees for Parallel Prophet.
//!
//! A *program tree* records the dynamic execution trace of the parallel
//! sections of an annotated serial program (paper §IV-B, Fig. 4). The
//! interval profiler in the `tracer` crate builds one tree per run; both
//! emulators (`ffemu`, `synthemu`) and the memory performance model
//! (`memmodel`) consume it.
//!
//! Node kinds mirror the paper exactly:
//!
//! * **Root** — holds the list of top-level parallel sections and top-level
//!   serial computations.
//! * **Sec** — a parallel section (e.g. one execution of an annotated loop);
//!   its children are the parallel tasks that may run concurrently. A
//!   section carries an optional implicit barrier (`nowait`) and, once the
//!   memory model has run, a table of per-thread-count *burden factors*.
//! * **Task** — one parallel task (e.g. a loop iteration); its children are
//!   an ordered sequence of computations and nested sections.
//! * **U** — a terminal computation performed while holding no lock.
//! * **L** — a terminal computation performed while holding a lock.
//!
//! Trees from real loops can be enormous (the paper reports 13.5 GB for
//! NPB-CG before compression), so sibling tasks whose subtrees are
//! structurally identical and whose lengths agree within a tolerance
//! (default 5%) are stored run-length encoded against a dictionary of
//! representative subtrees — see [`compress`].

pub mod builder;
pub mod compress;
pub mod flat;
pub mod node;
pub mod stats;
pub mod visit;
pub mod wire;

pub use builder::{BuildError, TreeBuilder};
pub use compress::{compress_tree, CompressOptions, CompressStats};
pub use flat::{FlatRun, FlatTree, ViewKind};
pub use node::{
    burden_factor, BurdenTable, ChildList, Cycles, LockId, MemProfile, Node, NodeId, NodeKind,
    ProgramTree, Run,
};
pub use stats::{TreeStats, WorkSummary};
pub use visit::{ChildEntries, ExpandedChildren, TaskSeq};
