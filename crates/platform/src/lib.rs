//! # decos-platform — the DECOS component/job/DAS platform
//!
//! Executable model of the integrated system structure of Figures 1, 2 and
//! 10 of the paper:
//!
//! * [`ids`] — identities of the functional structure (components, DASs,
//!   jobs) and physical mounting positions;
//! * [`transducer`] — sensors/actuators with their failure modes (job
//!   inherent faults);
//! * [`job`] — job behaviours and runtimes (the software FRUs);
//! * [`tmr`] — triple-modular-redundancy voting and divergence records;
//! * [`lif`] — derived Linking Interface specifications (the yardstick of
//!   every diagnostic symptom);
//! * [`component`] — the component (hardware FRU/FCR) with clock, sync
//!   monitor, endpoints and membership;
//! * [`mod@env`] — the [`Environment`] hooks through which every fault
//!   manifestation enters;
//! * [`cluster`] — the validated cluster specification and the slot-stepped
//!   simulation producing [`SlotRecord`] interface-state observations;
//! * [`observer`] — the [`SlotObserver`] trait through which diagnostic
//!   subsystems and probes consume those records uniformly;
//! * [`fig10`] — the paper's reference cluster;
//! * [`avionics`] — a larger 8-LRM cluster exercising the hidden-gateway
//!   service.

pub mod avionics;
pub mod cluster;
pub mod component;
pub mod env;
pub mod fig10;
pub mod ids;
pub mod job;
pub mod lif;
pub mod observer;
pub mod tmr;
pub mod transducer;

pub use cluster::{
    ClusterSim, ClusterSpec, DasSpec, DiagNetSpec, ObsKind, OverflowDelta, SlotRecord, SpecError,
};
pub use component::{ComponentSpec, ComponentState, Power};
pub use env::{ComponentDirective, Environment, NullEnvironment, TxDisturbance};
pub use ids::{Criticality, DasId, JobId, NodeId, Position};
pub use job::{DispatchCtx, JobBehavior, JobCounters, JobRuntime, JobSpec};
pub use lif::{derive_lif, PortLif, RateLif};
pub use observer::{SlotMetrics, SlotObserver};
pub use tmr::{vote, DivergenceRecord, VoteError, VoteResult};
pub use transducer::{Actuator, Sensor, SensorFault, SignalModel};
