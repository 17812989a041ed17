//! # glap-node — GLAP as real, transport-agnostic nodes
//!
//! The rest of the workspace trains GLAP with centralized loops that
//! *model* a distributed protocol: one function iterates over all PMs,
//! touching their tables and overlay views directly. This crate carves
//! that per-node protocol logic out into [`NodeCore`] — one PM's
//! complete GLAP state machine with a pure message-driven API — and
//! runs fleets of them behind a [`Transport`]:
//!
//! * [`SimTransport`] hosts the cores in a `Vec` and steps them inline —
//!   the deterministic oracle;
//! * [`ChannelTransport`] hosts them on a pool of real worker threads,
//!   every exchange a serialized [`WireMsg`] over `std::sync::mpsc`
//!   channels — real concurrency, real bytes on the wire.
//!
//! The two are **byte-identical**: each core draws randomness only from
//! its private `Stream::Node(id)` cursor, the driver
//! ([`NodeRuntime`]) fixes delivery order with a seeded
//! `Stream::Delivery` schedule, and all payloads cross both transports
//! as the same encoded bytes. A channel-backed run at any worker count
//! therefore reproduces the in-process run bit-for-bit — Q-tables,
//! telemetry counters and all — which is the property the
//! `node_runtime` experiment binary and CI enforce.

#![warn(missing_docs)]

mod channel;
mod core;
mod runtime;
mod transport;
mod wire;

pub use crate::core::{NodeCore, NodeInput, TickKind};
pub use channel::ChannelTransport;
pub use runtime::NodeRuntime;
pub use transport::{Routed, SimTransport, Transport};
pub use wire::{
    coded_header, payload_tag, tag_counter, tag_is_request, WireMsg, TAG_AGG_PUSH,
    TAG_AGG_PUSH_CODED, TAG_AGG_REPLY, TAG_AGG_REPLY_CODED, TAG_PROFILE_REPLY, TAG_PROFILE_REQUEST,
    TAG_SHUFFLE_REPLY, TAG_SHUFFLE_REQUEST,
};
