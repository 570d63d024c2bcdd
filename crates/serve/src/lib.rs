//! # svr-serve — sweep-as-a-service for the SVR reproduction
//!
//! A long-running simulation daemon (`svr_serve`) and its CLI client
//! (`svr_client`). Clients submit batches of design points as JSON over a
//! hand-rolled HTTP/1.1 socket; the daemon deduplicates them against
//! in-flight work (N clients asking for the same point cost one
//! simulation), resolves them against the same on-disk result store CLI
//! sweeps use, schedules fairly across clients, and streams windowed
//! progress back over chunked responses.
//!
//! The three modules mirror the three concerns:
//!
//! * [`http`] — the minimal `Connection: close` HTTP/1.1 subset (no
//!   external dependencies; the registry is offline);
//! * [`protocol`] — point specs, resolution against the workload/config
//!   registries, and the structured error bodies (no bare 500s);
//! * [`server`] — registry, per-client round-robin queues with bounded
//!   admission, the worker pool, the pending-work journal and drain
//!   lifecycle.
//!
//! Diagnostics go through the host-wide structured logger, [`svr_sim::log`]
//! (re-exported here as `svr_serve::log`), so the daemon's stderr carries
//! the sweep-layer events of the resolver it shares with bench sweeps.

pub mod http;
pub mod protocol;
pub mod server;

pub use svr_sim::log;

pub use protocol::{PointSpec, ProtoError, ResolvedPoint};
pub use server::{Admission, Job, Phase, Server, ServerConfig};
