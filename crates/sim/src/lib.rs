//! # decos-sim — deterministic simulation substrate
//!
//! Foundation crate of the DECOS integrated-diagnostic-architecture
//! reproduction. Provides:
//!
//! * [`time`] — nanosecond-granular simulated time ([`SimTime`],
//!   [`SimDuration`]);
//! * [`rng`] — named, seeded random streams ([`SeedSource`]) so every
//!   experiment is reproducible from one `u64` seed;
//! * [`stats`] — allocation-free streaming statistics used by both the
//!   workload generators and the diagnostic trend detectors;
//! * [`telemetry`] — preallocated, registry-keyed counters/gauges and
//!   per-phase wall-time spans for the slot pipeline (off by default;
//!   see DESIGN.md §11);
//! * [`flightrec`] — a bounded, zero-alloc-in-steady-state flight
//!   recorder of causal fault-lifecycle events, plus the per-fault
//!   latency fold behind the `detect_latency`/`convict_latency` metrics
//!   (DESIGN.md §11).
//!
//! A run is deliberately single-threaded: determinism of a run
//! outweighs intra-run parallelism. Fleet-scale experiments parallelise
//! *across* runs (see `decos::fleet`), which is embarrassingly parallel.

pub mod flightrec;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use flightrec::{
    FaultLifecycle, FaultRecord, FlightRecorder, FlightRecording, TraceEvent, TraceEventKind,
};
pub use rng::{SampleExt, SeedSource};
pub use telemetry::{Counter, CounterSet, Gauge, GaugeSet, Phase, Spans, TelemetrySnapshot};
pub use time::{SimDuration, SimTime};
