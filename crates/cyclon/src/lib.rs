//! # glap-cyclon — gossip-based peer sampling
//!
//! A from-scratch implementation of the **Cyclon** protocol (Voulgaris,
//! Gavidia & van Steen, 2005), the membership/peer-sampling component of the
//! GLAP architecture (Figure 2 of the paper). Each node maintains a small
//! partial view of the network and periodically *shuffles* part of it with
//! the neighbour holding its oldest descriptor; the resulting communication
//! graph is close to a random graph, which gives every higher-level gossip
//! protocol (GLAP's learning aggregation and consolidation components) a
//! cheap, uniform, churn-tolerant random-peer service.
//!
//! ```
//! use glap_cyclon::{CyclonOverlay, RoundIo};
//! use rand::SeedableRng;
//!
//! let mut overlay = CyclonOverlay::new(100, 8, 4);
//! let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
//! overlay.bootstrap_random(&mut rng);
//! for _ in 0..10 {
//!     overlay.run_round(&mut rng, RoundIo::default());
//! }
//! assert!(overlay.is_connected());
//! let peer = overlay.random_alive_peer(0, &mut rng);
//! assert!(peer.is_some());
//! ```

pub mod descriptor;
pub mod node;
pub mod overlay;

pub use descriptor::{Descriptor, NodeId};
pub use node::{CyclonNode, PendingShuffle};
pub use overlay::{bootstrap_sample, CyclonOverlay, RoundIo};
