//! The repository benchmark: three paper-shaped workloads run through the
//! public `uno` API, an untraced run for the end-to-end metrics and a
//! traced run, with timing decorators around each flow's transport and
//! congestion controller, for the per-layer metrics. See `README.md`.

pub mod layers;
pub mod report;
pub mod run;
pub mod workloads;
