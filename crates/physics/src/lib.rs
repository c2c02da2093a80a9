//! # agcm-physics — column physics and its load balancing
//!
//! "The Physics component of the AGCM code consists of a large amount of
//! local computations with no interprocessor communication required …
//! it is only the load-imbalance in the column physics processing that
//! drags down the parallel efficiency" (paper §3.4). "The amount of
//! computation required at each grid point is determined by several
//! factors, including whether it is day or night, the cloud distribution,
//! and the amount of cumulus convection determined by the conditional
//! stability of the atmosphere."
//!
//! This crate emulates exactly those cost drivers and implements the three
//! load-balancing schemes the paper weighs:
//!
//! * [`radiation`] — solar geometry (day/night), shortwave and an
//!   O(levels²) longwave exchange kernel;
//! * [`clouds`] — a deterministic, spatially-correlated, time-evolving
//!   cloud field ("unpredictability of the cloud distribution");
//! * [`convection`] — conditionally-triggered cumulus adjustment with a
//!   data-dependent iteration count;
//! * [`forcing`] — the per-pass table of latitude and longitude factors
//!   every column's cloud, sunlight and instability are built from;
//! * [`step`] — the per-column physics step that does the arithmetic and
//!   records its cost;
//! * [`load`] — load estimation from the previous pass's measured cost
//!   (the paper's §3.4 estimator) and the imbalance metric of Tables 1–3;
//! * [`balance`] — scheme 1 (cyclic all-to-all shuffle, Figure 4),
//!   scheme 2 (sorted greedy moves, Figure 5), scheme 3 (iterated pairwise
//!   exchange, Figure 6 — the adopted design), plus the executor that
//!   actually moves columns between ranks.

pub mod balance;
pub mod clouds;
pub mod convection;
pub mod forcing;
pub mod load;
pub mod radiation;
pub mod step;

pub use balance::{BalanceScheme, Transfer};
pub use load::imbalance;
pub use step::{ColumnCost, PhysicsConfig, PhysicsStep};
