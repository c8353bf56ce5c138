//! # contention-sim
//!
//! A discrete-slot simulator for **contention resolution on a multiple-access
//! channel without collision detection**, with adaptive adversarial arrivals
//! and jamming — the exact model of Chen, Jiang & Zheng, *Tight Trade-off in
//! Contention Resolution without Collision Detection* (PODC 2021).
//!
//! ## Model
//!
//! * Time is slotted and synchronized; slots are numbered globally from 1,
//!   but nodes only ever see their **local** clock (slots since their own
//!   activation).
//! * Each node carries one message. In each slot it broadcasts or listens.
//! * Exactly one broadcaster in an unjammed slot ⇒ success; the sender
//!   leaves immediately. Zero or ≥ 2 broadcasters, or a jammed slot ⇒
//!   failure.
//! * **No collision detection** (the default [`ChannelModel`]): silence,
//!   collision and jamming produce identical feedback
//!   ([`Feedback::NoSuccess`]) for nodes *and* for the adversary. Richer
//!   feedback regimes — ternary collision detection, ack-only — are
//!   selectable via [`SimConfig::with_channel`].
//! * The adversary is adaptive: before each slot she sees all past public
//!   feedback and decides whether to jam and how many nodes to inject.
//!
//! ## Quick example
//!
//! ```
//! use contention_sim::prelude::*;
//!
//! // Five nodes arrive together; each broadcasts with probability 1/2.
//! struct Half;
//! impl Protocol for Half {
//!     fn name(&self) -> &'static str { "half" }
//!     fn act(&mut self, _slot: u64, rng: &mut rand::rngs::SmallRng) -> Action {
//!         if rand::Rng::gen_bool(rng, 0.5) { Action::Broadcast } else { Action::Listen }
//!     }
//!     fn observe(&mut self, _slot: u64, _fb: Feedback) {}
//! }
//!
//! let factory = |_: NodeId| -> Box<dyn Protocol> { Box::new(Half) };
//! let adversary = CompositeAdversary::new(BatchArrival::at_start(5), NoJamming);
//! let mut sim = Simulator::new(SimConfig::with_seed(7), factory, adversary);
//! sim.run_until_drained(10_000);
//! assert_eq!(sim.trace().total_successes(), 5);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
mod calendar;
pub mod channel;
pub mod checkpoint;
pub mod config;
pub mod dual;
pub mod engine;
pub mod history;
pub mod lanes;
pub mod metrics;
pub mod node;
pub mod observer;
pub mod rng;
pub mod slot;
mod sparse;

pub use adversary::{Adversary, Forecast, SlotDecision};
pub use channel::ChannelModel;
pub use checkpoint::{Snapshot, SnapshotError};
pub use config::{Execution, SimConfig};
pub use engine::{Simulator, StopReason};
pub use history::PublicHistory;
pub use lanes::{lane_eligible, LaneRngs, LaneSimulator, LANES};
pub use metrics::{CumulativeTrace, DepartureRecord, SlotRecord, SurvivorRecord, Trace};
pub use node::{NamedFactory, NodeId, Protocol, ProtocolFactory};
pub use observer::StreamingStats;
pub use rng::SeedSequence;
pub use slot::{Action, Feedback, Parity, SlotOutcome};

/// Convenient glob-import of the most used items.
pub mod prelude {
    pub use crate::adversary::{
        Adversary, ArrivalProcess, BatchArrival, BurstyArrival, CompositeAdversary, Forecast,
        FrontLoadedJamming, JammingStrategy, NoArrivals, NoJamming, NullAdversary, PeriodicJamming,
        PoissonArrival, RandomJamming, SaturatedArrival, ScriptedArrival, ScriptedJamming,
        SlotDecision,
    };
    pub use crate::channel::ChannelModel;
    pub use crate::checkpoint::{Snapshot, SnapshotError};
    pub use crate::config::{Execution, SimConfig};
    pub use crate::engine::{Simulator, StopReason};
    pub use crate::history::PublicHistory;
    pub use crate::lanes::{lane_eligible, LaneRngs, LaneSimulator, LANES};
    pub use crate::metrics::{CumulativeTrace, DepartureRecord, SlotRecord, Trace};
    pub use crate::node::{
        AlwaysBroadcast, NamedFactory, NeverBroadcast, NodeId, Protocol, ProtocolFactory,
    };
    pub use crate::observer::StreamingStats;
    pub use crate::rng::SeedSequence;
    pub use crate::slot::{Action, Feedback, Parity, SlotOutcome};
}
