//! End-to-end and per-layer benchmark of the AFRAID reproduction.
//!
//! One command runs one workload, generated from a seed, through the
//! library's public API — trace generation (`afraid_trace`), the
//! experiment pool (`afraid_exp`), the simulator (`afraid::driver`),
//! crash recovery (`afraid::recovery`), the chaos verdict
//! (`afraid_chaos::verdict`) and the availability report
//! (`afraid::report`) — checks the outputs, and prints every metric by
//! name and unit. Layers are timed from outside, around the
//! benchmark's own calls into them; `PREDICTIONS.md` says which
//! end-to-end metric each per-layer metric should move, and on which
//! workload.

pub mod measure;
pub mod spans;
pub mod workloads;
