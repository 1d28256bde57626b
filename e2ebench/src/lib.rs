//! End-to-end and per-layer wall-time benchmark of the CloudViews job path
//! and its durable network front door. See README.md.

pub mod frontdoor;
pub mod jobs;
pub mod metrics;
pub mod replay;
pub mod run;
pub mod seeds;
pub mod trace;
