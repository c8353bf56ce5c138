//! The declarative scenario API: experiments are data, not binaries.
//!
//! The paper's results all have the shape *protocol P against adversary
//! class A at budget B*; this module makes that shape a first-class,
//! serializable value:
//!
//! ```
//! use contention_bench::scenario::{
//!     AlgoSpec, ArrivalSpec, JammingSpec, ScenarioRunner, ScenarioSpec,
//! };
//!
//! // 64 nodes arrive together; 25% of slots are jammed at random.
//! let spec = ScenarioSpec::batch(64, 0.25).seeds(3);
//! let algo = AlgoSpec::cjz_constant_jamming();
//! let outcomes = ScenarioRunner::new(spec).run_algo(&algo);
//! assert!(outcomes.iter().all(|o| o.drained));
//!
//! // Scenarios serialize: the same experiment as data.
//! let spec = ScenarioSpec::batch(64, 0.25);
//! let json = spec.to_json_string();
//! assert_eq!(ScenarioSpec::from_json_str(&json).unwrap(), spec);
//!
//! // Or fetch a named workload from the registry.
//! let runner = ScenarioRunner::from_registry("bursty").unwrap();
//! assert_eq!(runner.spec().name, "bursty");
//! # let _ = (outcomes, runner);
//! ```
//!
//! * [`spec`] — the data model ([`ScenarioSpec`] and its parts);
//! * [`runner`] — execution: replication, record-mode policy, metrics;
//! * [`registry`] — named workloads (`batch/32`, `constant-jamming/0.4`,
//!   `lowerbound/theorem13`, …);
//! * [`json`] — serialization (self-contained JSON; no external deps).

pub mod json;
pub mod registry;
pub mod runner;
pub mod spec;

pub use json::{Json, SpecError};
pub use registry::{entries, lookup, names, RegistryEntry};
pub use runner::{
    replicate, run_batch, run_batch_light, AlgoReport, CheckpointedTrial, FootprintError,
    ScenarioReport, ScenarioRunner, TrialOutcome, RECORD_CAP_BYTES,
};
pub use spec::{
    AdversarySpec, AlgoSpec, ArrivalSpec, BaselineSpec, BudgetSpec, ChannelSpec, CheckpointPolicy,
    CurveSpec, GSpec, HorizonSpec, JammingSpec, ParamsSpec, RecordMode, ScenarioSpec, SmoothSpec,
};
