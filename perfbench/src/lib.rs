//! End-to-end and per-layer benchmark of the pricing service.
//!
//! One command takes a workload name and a seed, generates that
//! workload's commands with the repo's churn traffic model, drives the
//! service only through its public APIs (`PricingService::execute` in
//! process, or `fedfl_net::serve` plus `PricingClient::call` over
//! loopback), checks the served prices, and prints the end-to-end
//! metrics — or, traced, the per-layer metrics. See `README.md` in this
//! directory for the metric map and how to run an A/B pair.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod host;
pub mod inproc;
pub mod metrics;
pub mod plan;
pub mod record;
pub mod run;
pub mod stats;
pub mod verify;
pub mod wire;
