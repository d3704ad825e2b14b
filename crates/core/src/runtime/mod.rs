//! The GALS *deployment* runtime.
//!
//! Where [`crate::desync`] builds the paper's fully synchronous multi-clock
//! *model* of an asynchronous design, this module plays the other end of the
//! story: it actually runs the components on independent local clocks,
//! coupled only by FIFO queues — the target the validated model is deployed
//! onto. The test-suite closes the loop by checking that the flows observed
//! here are flow-equivalent to the synchronous model's flows, which is the
//! paper's notion of a correct deployment.
//!
//! * [`clock`] — local activation patterns: periodic, jittered, random;
//! * [`channel`] — runtime queues with the [`crate::ChannelPolicy`]
//!   overflow policies and occupancy statistics;
//! * [`executor`] — a deterministic single-threaded event loop over global
//!   time, the reference for the three channel policies;
//! * [`federated`] — the same system on OS threads, where the asynchrony is
//!   real: one compiled federate per component over bounded credit
//!   channels, coordinated by the `rti` (start barrier, shutdown
//!   propagation, streaming occupancy counters, leak-free teardown);
//! * [`record`] — the dense [`SigId`]-slot flow recorder the federates use.
//!
//! [`SigId`]: polysig_tagged::SigId

pub mod channel;
pub mod clock;
pub mod executor;
pub mod federated;
pub mod record;
pub(crate) mod rti;

pub use channel::{
    fed_channel, ChannelCounters, ChannelMonitor, ChannelStats, ChannelTelemetry, FedReceiver,
    FedSender, RecvOutcome, RuntimeChannel, SendOutcome,
};
pub use clock::ClockModel;
pub use executor::{ComponentSpec, GalsExecutor, GalsRun};
pub use federated::{
    run_federated, FederateSpec, FederateStats, FederatedOptions, FederatedRun, OccupancySample,
};
pub use record::FlowRecorder;
pub use rti::JoinStats;
