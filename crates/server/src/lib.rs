//! # `dps-server` — the multi-session front door
//!
//! The paper's engine (§4.2–4.3) runs *one* rule program over *one*
//! working memory. A production deployment has N clients, each
//! submitting WM deltas, condition queries and rule-program
//! invocations concurrently — and a front door that must stay up when
//! the offered load exceeds what the engine can absorb. This crate is
//! that front door:
//!
//! * [`wire`] — a length-prefixed binary protocol
//!   (`[u32 len][tag][payload]`): [`wire::Request`] /
//!   [`wire::Response`] with a self-describing codec and no external
//!   dependencies.
//! * [`transport`] — the [`transport::Conn`] byte-stream abstraction
//!   and [`transport::loopback_pair`], an in-process full-duplex pipe
//!   with read timeouts and abrupt-disconnect semantics, so the whole
//!   stack is testable in the hermetic (network-less) build.
//! * [`admission`] — token-bucket admission, inflight-transaction
//!   backpressure and doom-storm load shedding (a consecutive
//!   contention-abort streak holds the door shut for a while): overload
//!   is answered with a typed
//!   [`wire::Response::Overloaded`] (plus a retry hint) instead of
//!   queueing without bound — §5's wasted-work argument applied at the
//!   session boundary.
//! * [`session`] — the per-connection state machine
//!   (`Idle → InTxn → Draining → Closed`) with per-session
//!   transaction timeouts.
//! * [`server`] — [`server::Server`]: one shared
//!   [`dps_core::ParallelEngine`] in service mode, one handler thread
//!   per connection, disconnect safety (a session dying mid-transaction
//!   releases its locks, drops its snapshot pin and rolls back its
//!   buffered delta) and graceful drain on shutdown.
//! * [`shutdown`] — process signal (SIGINT/SIGTERM) → cooperative
//!   stop flag, shared by every gate binary.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod server;
pub mod session;
pub mod shutdown;
pub mod transport;
pub mod wire;

pub use admission::{Admission, AdmissionConfig, AdmissionController, AdmissionStats};
pub use server::{Server, ServerConfig, ServerStats};
pub use session::{SessionState, SessionTimeouts};
pub use transport::{loopback_pair, Conn, LoopbackConn};
pub use wire::{read_frame, write_frame, ErrCode, Request, Response};
