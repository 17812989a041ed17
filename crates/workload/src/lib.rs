//! # glap-workload — workload traces
//!
//! The demand side of the simulation. The paper replays Google cluster VM
//! traces \[12\]; that dataset is externally gated, so this crate provides a
//! synthetic generator ([`google::GoogleLikeTraceGen`]) matched to the
//! dataset's published statistics (low heavy-tailed CPU means, steadier
//! memory, strong autocorrelation, diurnal and bursty components) plus the
//! parametric patterns it is built from, a trace type implementing
//! [`glap_cluster::DemandSource`] — generated traces store one replay
//! point per VM and remake cells on demand, CSV traces store every cell —
//! and CSV IO for plugging in real trace extracts.
//!
//! ```
//! use glap_workload::GoogleLikeTraceGen;
//! use rand::SeedableRng;
//!
//! let gen = GoogleLikeTraceGen::default_stats();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let trace = gen.generate(100, 720, &mut rng); // 100 VMs, one day
//! assert!(trace.mean_cpu() < 0.5); // Google-like: low CPU usage
//! ```

pub mod dist;
pub mod google;
pub mod loader;
pub mod patterns;
pub mod trace;

pub use google::{GoogleLikeTraceGen, GoogleTraceConfig};
pub use loader::{load_csv, save_csv};
pub use patterns::Pattern;
pub use trace::{MaterializedTrace, OffsetTrace};
