// Bridges from the pre-existing per-component stats structs into the
// metrics registry, so every number the system already tracks is visible
// through one interface (one Prometheus/JSON export, one `--stats` cut).
//
// Each Register* call installs one gauge *provider*: a callback invoked at
// snapshot time that makes a single `Stats()` call on the component and
// emits every field as a gauge sample. One Stats() call per component per
// snapshot keeps each component's sub-cut internally coherent (its own
// atomics read back-to-back) and adds zero cost to the component's hot
// path — the component doesn't know it is registered.
//
// Lifetime: the returned GaugeRegistration unregisters on destruction and
// MUST NOT outlive the component it samples (the callback holds a raw
// pointer). Frontends/engines are stack-scoped, so nothing auto-registers
// at construction — tests build dozens of engines and their samples would
// collide on the shared names. Binaries that want the full surface
// (serve_cli, benches) register explicitly and hold the handles.
#pragma once

#include "obs/metrics.h"

namespace bsg {

class ServingFrontend;
class DetectionEngine;

namespace obs {

// The exported names are fixed (CI's Prometheus/JSON checks and the
// `--stats` conservation line read them), so the prefixes are too.

/// FrontendStats (requests/targets by status, retries, breaker, shedding,
/// cost model) as "serve.frontend.*". Does not emit the nested engine
/// snapshot — register the engine separately.
GaugeRegistration RegisterFrontendMetrics(const ServingFrontend* frontend);

/// EngineStats as "serve.engine.*", the nested SubgraphCacheStats as
/// "serve.cache.*" and BatchStackerStats as "serve.stacker.*".
GaugeRegistration RegisterEngineMetrics(const DetectionEngine* engine);

/// BufferPool::Global() stats as "pool.*".
GaugeRegistration RegisterBufferPoolMetrics();

/// FaultInjector::Global(): "fault.armed" plus per-site
/// "fault.<site>.evaluations" / ".fires".
GaugeRegistration RegisterFaultMetrics();

/// Checkpoint IO counters as "ckpt.*".
GaugeRegistration RegisterCheckpointIoMetrics();

/// ResourceGovernor::Global(): budget/watermarks, accounted total + peak,
/// pressure level, transition/reclaim/refusal counters as "governor.*",
/// plus per-account resident/peak/charges/releases/refusals as
/// "governor.account.<name>.*".
GaugeRegistration RegisterGovernorMetrics();

/// Tracer bookkeeping (sampled/completed/dropped/...) as "obs.tracer.*".
GaugeRegistration RegisterTracerMetrics();

}  // namespace obs
}  // namespace bsg
