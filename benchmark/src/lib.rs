//! The repo's benchmark: five workloads, from the paper's score matrix to
//! store-backed sharded serving, each measured end to end (untraced pass)
//! and layer by layer (traced pass). README.md in this directory is the
//! manual; `BENCHMARK.json` at the repo root is the contract.

pub mod agree;
pub mod gen;
pub mod ledger;
pub mod provenance;
pub mod stats;
pub mod trace;
pub mod workloads;
