//! A long-running XML/XPath pub/sub broker over the `pxf` filtering
//! engine.
//!
//! This crate turns the library-level pieces — [`pxf_core`]'s
//! snapshot-published [`FilterEngine`](pxf_core::FilterEngine) and
//! [`pxf_xml`]'s parser under [`ParserLimits`](pxf_xml::ParserLimits),
//! the one pass over the document each `DOC` frame carries —
//! into the deployment the paper evaluates: a broker holding hundreds of
//! thousands of resident XPath subscriptions, filtering a continuous
//! document stream while users subscribe and unsubscribe, and fanning
//! matches out to the owning connections.
//!
//! Everything is hand-rolled `std`: blocking `std::net` TCP with one
//! reader/writer thread pair per connection, [`queue::BoundedQueue`]
//! hand-offs with explicit backpressure, a single subscription-writer
//! thread, a matcher worker pool, and a sequence-restoring delivery
//! thread. See [`server`] for the thread topology and invariants, and
//! [`protocol`] for the wire format.
//!
//! # Quick start
//!
//! ```no_run
//! use pxf_broker::{Broker, BrokerConfig};
//!
//! let handle = Broker::spawn(BrokerConfig::default()).unwrap();
//! println!("listening on {}", handle.local_addr());
//! let final_stats = handle.wait(); // until SHUTDOWN or handle.shutdown()
//! println!("matched {} documents", final_stats.matched);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;
pub mod queue;
pub mod server;

pub use protocol::{Command, ProtocolError, Reply};
pub use queue::{Backpressure, BoundedQueue};
pub use server::{Broker, BrokerConfig, BrokerHandle, BrokerStatsSnapshot};
