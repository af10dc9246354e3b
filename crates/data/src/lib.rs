//! Synthetic smart-home traces for the PEM evaluation.
//!
//! The paper's experiments (§VII-A) run on one day of real generation and
//! load data for 300 smart homes from the UMass Trace Repository (ref. 7),
//! sliced into 720 one-minute trading windows from 7:00 to 19:00. That
//! dataset cannot be redistributed here, so this crate synthesizes traces
//! with the same structure and the statistical features the paper's
//! figures depend on:
//!
//! * **Solar generation** — a clear-sky bell over the daylight hours
//!   modulated by an AR(1) cloud process, scaled per home by its panel
//!   capacity. Generation is ~0 at 7:00 and 19:00, peaking near 13:00 —
//!   which is what pins Fig. 6(a)'s price at the retail rate in the
//!   morning/evening windows and drives the midday seller bulge of Fig. 4.
//! * **Household load** — a base draw plus morning/evening peaks and
//!   random appliance bursts (Poisson-ish arrivals, finite duration).
//! * **Batteries** — an optional per-home battery with a greedy
//!   self-consumption policy (charge from surplus, discharge into
//!   deficit), producing the `b` term of Eq. 1.
//! * **Agent parameters** — preference `k` (uniform over the paper's
//!   20–40 exemplar range) and battery loss `ε ∈ (0.8, 0.98)`.
//!
//! Everything is deterministic given [`TraceConfig::seed`].
//!
//! # Example
//!
//! ```
//! use pem_data::{TraceConfig, TraceGenerator};
//!
//! let trace = TraceGenerator::new(TraceConfig {
//!     homes: 10,
//!     windows: 96,
//!     ..TraceConfig::default()
//! })
//! .generate();
//! let agents = trace.window_agents(48); // around midday
//! assert_eq!(agents.len(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod battery;
mod load;
mod solar;
mod stats;
mod trace;

pub use battery::{Battery, BatteryPolicy};
pub use load::LoadModel;
pub use solar::SolarModel;
pub use stats::{coalition_series, TraceStats};
pub use trace::{HomeProfile, Trace, TraceConfig, TraceGenerator, WindowRow};
