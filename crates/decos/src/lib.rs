//! # decos — reproduction of the DECOS integrated diagnostic architecture
//!
//! Facade crate bundling the full stack of the reproduction of
//! *"A Maintenance-Oriented Fault Model for the DECOS Integrated Diagnostic
//! Architecture"* (Peti, Obermaisser, Ademaj, Kopetz — IPPS 2005):
//!
//! * [`sim`] — deterministic discrete-event kernel, seeded RNG streams,
//!   streaming statistics;
//! * [`timebase`] — local clocks, fault-tolerant clock sync, sparse time;
//! * [`ttnet`] — the time-triggered core network (TDMA, guardians,
//!   membership);
//! * [`vnet`] — virtual networks (ports, bounded queues, configuration);
//! * [`platform`] — components, jobs, DASs, TMR, the Fig. 10 cluster;
//! * [`faults`] — the maintenance-oriented fault taxonomy + injection;
//! * [`reliability`] — FIT rates, Weibull/bathtub models, α-count;
//! * [`diagnosis`] — symptoms, ONAs, trust levels, maintenance advice, and
//!   the OBD baseline;
//! * [`analyzer`] — static model checking of experiment specifications
//!   (every `run_campaign*` entry point refuses experiments with
//!   error-severity diagnostics; `decos-lint` exposes the same pass on the
//!   command line);
//! * [`runner`] / [`fleet`] — campaign driver and the sharded streaming
//!   fleet executor ([`fleet_exec`]: work-stealing index blocks folding
//!   into per-shard accumulators, bit-identical for any shard count);
//! * [`store`] / [`store_run`] — crash-safe event-sourced persistence:
//!   an append-only CRC-framed journal plus snapshots, with bit-identical
//!   resume (`decos-store` + the runner glue);
//! * [`workshop`] — the closed maintenance loop (§V): actions mutate the
//!   fault set; repeat-visit and NFF economics fall out.
//!
//! ## Quickstart
//!
//! ```
//! use decos::prelude::*;
//!
//! // A steer-by-wire-ish cluster with a wearing-out component 1.
//! let campaign = Campaign::reference(
//!     decos::faults::campaign::wearout_campaign(NodeId(1), 500.0, 200_000.0),
//!     1.0,     // real-time rates
//!     2_000,   // TDMA rounds (8 s at 4 ms/round)
//!     42,      // master seed
//! );
//! let outcome = run_campaign(&campaign).unwrap();
//! let verdict = outcome
//!     .report
//!     .verdict_of(FruRef::Component(NodeId(1)))
//!     .expect("the degrading component is assessed");
//! assert!(verdict.trust < 1.0);
//! ```

pub use decos_analyzer as analyzer;
pub use decos_diagnosis as diagnosis;
pub use decos_faults as faults;
pub use decos_platform as platform;
pub use decos_reliability as reliability;
pub use decos_sim as sim;
pub use decos_store as store;
pub use decos_timebase as timebase;
pub use decos_ttnet as ttnet;
pub use decos_vnet as vnet;

pub mod fleet;
pub mod fleet_exec;
pub mod runner;
pub mod store_run;
pub mod workshop;

/// The working set most users need.
pub mod prelude {
    pub use crate::fleet::{
        run_fleet, run_fleet_configured, FleetAccumulator, FleetConfig, FleetOptions, FleetOutcome,
        FleetRetention, RetainedVehicles, SampledVehicle, VehicleOutcome, FLEET_BLOCK,
    };
    pub use crate::runner::{
        run_campaign, run_campaign_opts, trust_trajectories, Campaign, CampaignError,
        CampaignOutcome, RunOptions, TrustSeries,
    };
    pub use crate::store_run::{
        run_campaign_stored, run_fleet_stored, CampaignStore, FleetStore, StorePolicy,
        StoreRunError, StoreRunStats,
    };
    pub use crate::workshop::{service_loop, CostModel, ServiceHistory, ServiceVisit, Strategy};
    pub use decos_analyzer::{analyze, AnalysisReport, DiagCode, ExperimentSpec, Severity};
    pub use decos_diagnosis::{
        DiagnosticEngine, DiagnosticReport, EngineParams, FruVerdict, ObdDiagnosis, ObdParams,
        ObdReport, DEGRADED_QUALITY_THRESHOLD,
    };
    pub use decos_faults::{FaultClass, FaultKind, FaultSpec, FruRef, MaintenanceAction};
    pub use decos_platform::fig10;
    pub use decos_platform::{
        ClusterSim, ClusterSpec, JobId, NodeId, Position, SlotMetrics, SlotObserver,
    };
    pub use decos_sim::flightrec::{
        FaultLifecycle, FaultRecord, FlightRecording, TraceEvent, TraceEventKind,
    };
    pub use decos_sim::telemetry::TelemetrySnapshot;
    pub use decos_sim::{SimDuration, SimTime};
}
