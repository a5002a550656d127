//! The async twin of the [`Source`] trait, plus adapters for the existing
//! backends.
//!
//! [`AsyncSource::call`] returns a boxed future instead of blocking the
//! calling thread: a high-latency deep-Web round trip becomes an await
//! point, so one thread can keep many accesses in flight — the paper's
//! federation of slow autonomous sources wants overlapping I/O, not more
//! threads. Two adapters cover the existing backends:
//!
//! * [`AsyncSimulatedSource`] wraps a [`SimulatedSource`] and realises its
//!   latency / flaky-retry / paging models as an *awaitable state machine*:
//!   every simulated round trip (each failed attempt, then each page of the
//!   successful response) is one [`VirtualClock::sleep`] await. The plan —
//!   content, failure outcome, per-trip latencies — is computed by the same
//!   `SimulatedSource` code the threaded path runs, so both paths report
//!   identical [`BackendStats`] (calls / retries / failures / pages /
//!   simulated latency) and identical responses; only how the waiting
//!   happens differs (virtual awaits instead of a `thread::sleep`). The
//!   `LatencyModel::sleep` flag is ignored here: the async runtime never
//!   sleeps for real.
//! * [`BlockingSource`] lifts any synchronous [`Source`] (notably
//!   [`PolicySource`](crate::PolicySource), and with it every
//!   `accrel_engine::ResponsePolicy`) into an `AsyncSource` whose futures
//!   complete on their first poll without advancing the virtual clock —
//!   correct for sources whose cost model is "instant", and the bridge that
//!   lets the async equivalence grid reuse the engine's policies verbatim.

use std::future::Future;
use std::pin::Pin;
use std::sync::Mutex;

use accrel_access::{Access, AccessMethods, Response};

use crate::error::SourceError;
use crate::executor::VirtualClock;
use crate::source::{BackendStats, LatencyModel, SimulatedSource, Source};

/// The boxed future of one async source call. Not `Send`: the mini-executor
/// is single-threaded, so futures never cross threads (the *sources* are
/// still `Send + Sync` — many executors may use one source, one at a time
/// each).
pub type SourceFuture<'a> = Pin<Box<dyn Future<Output = Result<Response, SourceError>> + 'a>>;

/// An asynchronous deep-Web source: the engine learns about the hidden data
/// only by awaiting [`AsyncSource::call`]. The contract mirrors [`Source`]
/// member for member; implementations whose response is a deterministic
/// function of the access alone (every adapter in this crate) inherit the
/// merge loop's sequential-equivalence guarantee.
///
/// **Suspension contract:** the runtime driving these futures is the
/// single-threaded mini-executor, which advances the shared
/// [`VirtualClock`] when no task is ready but never parks waiting for an
/// external wake. A call future must therefore only suspend on that clock
/// (directly or transitively through [`VirtualClock::sleep`] /
/// [`crate::Semaphore`]) or resolve without suspending — a future woken
/// from another thread (real I/O, a channel) is reported as stuck by
/// [`crate::Executor::run`] and fails the async executor's run with a
/// panic. Bridging genuinely external work needs a reactor behind this
/// trait (see the ROADMAP's "real async I/O" item); until then, wrap
/// blocking sources in [`BlockingSource`].
pub trait AsyncSource: Send + Sync {
    /// A human-readable source name (used in stats and error messages).
    fn name(&self) -> &str;
    /// The access methods this source understands.
    fn methods(&self) -> &AccessMethods;
    /// Starts an access; the returned future resolves to its (sound)
    /// response, or an error for calls the source could not serve. The
    /// access is taken by value so the future owns everything it needs.
    /// Must honour the trait's suspension contract (virtual-clock waits
    /// only).
    fn call(&self, access: Access) -> SourceFuture<'_>;
    /// Cumulative backend statistics.
    fn stats(&self) -> BackendStats;
    /// Resets the statistics (and any per-run simulation counters).
    fn reset_stats(&self);
    /// Swaps the source's latency model mid-run (`None` removes it).
    /// Default no-op, mirroring [`Source::set_latency`]; the adapters
    /// forward to the wrapped synchronous source.
    fn set_latency(&self, latency: Option<LatencyModel>) {
        let _ = latency;
    }
    /// Swaps the source's transient-failure model mid-run (`None` removes
    /// it). Default no-op, mirroring [`Source::set_flaky`].
    fn set_flaky(&self, flaky: Option<crate::source::FlakyModel>) {
        let _ = flaky;
    }
}

/// [`SimulatedSource`] with its round trips awaited on a [`VirtualClock`]
/// instead of slept: same responses, same statistics, no real time.
#[derive(Debug)]
pub struct AsyncSimulatedSource {
    inner: SimulatedSource,
    clock: VirtualClock,
}

impl AsyncSimulatedSource {
    /// Wraps `inner`, drawing its latencies from `clock` (share the clock
    /// of the federation / executor that will drive the calls).
    pub fn new(inner: SimulatedSource, clock: VirtualClock) -> Self {
        Self { inner, clock }
    }

    /// The wrapped synchronous source.
    pub fn inner(&self) -> &SimulatedSource {
        &self.inner
    }
}

impl AsyncSource for AsyncSimulatedSource {
    fn name(&self) -> &str {
        Source::name(&self.inner)
    }

    fn methods(&self) -> &AccessMethods {
        Source::methods(&self.inner)
    }

    fn call(&self, access: Access) -> SourceFuture<'_> {
        Box::pin(async move {
            let plan = self.inner.plan_call(&access)?;
            // The awaitable state machine: one virtual round trip per
            // failed attempt, then one per page of the successful response
            // (the plan lists them in exactly that order).
            for &micros in &plan.trip_micros {
                if micros > 0 {
                    self.clock.sleep(micros).await;
                }
            }
            self.inner.commit_plan(&plan);
            if !plan.succeeds {
                return Err(self.inner.unavailable(&plan));
            }
            Ok(Response::new(plan.tuples))
        })
    }

    fn stats(&self) -> BackendStats {
        Source::stats(&self.inner)
    }

    fn reset_stats(&self) {
        Source::reset_stats(&self.inner)
    }

    fn set_latency(&self, latency: Option<LatencyModel>) {
        Source::set_latency(&self.inner, latency)
    }

    fn set_flaky(&self, flaky: Option<crate::source::FlakyModel>) {
        Source::set_flaky(&self.inner, flaky)
    }
}

/// Lifts any synchronous [`Source`] into an [`AsyncSource`] whose futures
/// complete in one poll (the inner call runs on first poll, not at
/// creation) and never touch the virtual clock — unless a virtual latency
/// is attached with [`BlockingSource::with_virtual_latency`], in which case
/// each call first awaits one modelled round trip on the shared clock.
/// Injected latency matters to the serving layer: a source that completes
/// on its first poll never lets two sessions overlap in virtual time, so
/// cross-session deduplication would have nothing to merge.
#[derive(Debug)]
pub struct BlockingSource<S: Source> {
    inner: S,
    latency: Option<(LatencyModel, VirtualClock)>,
    injected_micros: Mutex<u64>,
}

impl<S: Source> BlockingSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            latency: None,
            injected_micros: Mutex::new(0),
        }
    }

    /// Attaches a per-call virtual round trip drawn from `latency` and
    /// awaited on `clock` (share the clock of the federation / executor
    /// that will drive the calls). The injected latency is reported via
    /// [`BackendStats::simulated_latency_micros`]; the model's `sleep` flag
    /// is ignored — the wait is always virtual.
    pub fn with_virtual_latency(mut self, latency: LatencyModel, clock: VirtualClock) -> Self {
        self.latency = Some((latency, clock));
        self
    }

    /// The wrapped synchronous source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: Source> AsyncSource for BlockingSource<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn methods(&self) -> &AccessMethods {
        self.inner.methods()
    }

    fn call(&self, access: Access) -> SourceFuture<'_> {
        Box::pin(async move {
            if let Some((model, clock)) = &self.latency {
                let micros = model.trip_micros(&access, 0);
                if micros > 0 {
                    *self.injected_micros.lock().unwrap() += micros;
                    clock.sleep(micros).await;
                }
            }
            self.inner.call(&access)
        })
    }

    fn stats(&self) -> BackendStats {
        let mut stats = self.inner.stats();
        stats.simulated_latency_micros += *self.injected_micros.lock().unwrap();
        stats
    }

    fn reset_stats(&self) {
        *self.injected_micros.lock().unwrap() = 0;
        self.inner.reset_stats()
    }

    fn set_latency(&self, latency: Option<LatencyModel>) {
        self.inner.set_latency(latency)
    }

    fn set_flaky(&self, flaky: Option<crate::source::FlakyModel>) {
        self.inner.set_flaky(flaky)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Executor;
    use crate::source::{FlakyModel, LatencyModel, PolicySource};
    use accrel_access::{binding, AccessMode};
    use accrel_engine::{DeepWebSource, ResponsePolicy};
    use accrel_schema::{Instance, Schema};

    fn setup() -> (Instance, AccessMethods, Access) {
        let mut b = Schema::builder();
        let d = b.domain("D").unwrap();
        b.relation("R", &[("a", d), ("b", d)]).unwrap();
        let schema = b.build();
        let mut mb = AccessMethods::builder(schema.clone());
        let acc = mb.add("RAcc", "R", &["a"], AccessMode::Dependent).unwrap();
        let methods = mb.build();
        let mut inst = Instance::new(schema);
        for i in 0..10 {
            inst.insert_named("R", ["k".to_string(), format!("v{i}")])
                .unwrap();
        }
        (inst, methods, Access::new(acc, binding(["k"])))
    }

    fn drive(clock: &VirtualClock, future: SourceFuture<'_>) -> Result<Response, SourceError> {
        let exec = Executor::new(clock.clone());
        let handle = exec.spawn(future);
        assert_eq!(exec.run(), 0, "source future blocked on a non-timer");
        handle.take().expect("source future completed")
    }

    #[test]
    fn async_simulated_source_matches_sync_twin_exactly() {
        let (inst, methods, access) = setup();
        let build = || {
            SimulatedSource::exact("s", inst.clone(), methods.clone())
                .with_latency(LatencyModel {
                    base_micros: 100,
                    jitter_micros: 50,
                    seed: 7,
                    sleep: false,
                })
                .with_flaky(FlakyModel {
                    period: 1,
                    fail_attempts: 2,
                    retries: 3,
                })
                .with_paging(3)
        };
        let sync = build();
        let clock = VirtualClock::new();
        let async_src = AsyncSimulatedSource::new(build(), clock.clone());
        let sync_resp = sync.call(&access).unwrap();
        let async_resp = drive(&clock, async_src.call(access.clone())).unwrap();
        assert_eq!(sync_resp.tuples(), async_resp.tuples());
        // Identical statistics: calls, retries, pages, simulated latency.
        assert_eq!(Source::stats(&sync), AsyncSource::stats(&async_src));
        // The virtual clock advanced by exactly the simulated latency.
        assert_eq!(
            clock.now_micros(),
            AsyncSource::stats(&async_src).simulated_latency_micros
        );
    }

    #[test]
    fn async_flaky_source_fails_like_the_sync_twin() {
        let (inst, methods, access) = setup();
        let build = || {
            SimulatedSource::exact("s", inst.clone(), methods.clone()).with_flaky(FlakyModel {
                period: 1,
                fail_attempts: 5,
                retries: 1,
            })
        };
        let sync = build();
        let clock = VirtualClock::new();
        let async_src = AsyncSimulatedSource::new(build(), clock.clone());
        let sync_err = sync.call(&access).unwrap_err();
        let async_err = drive(&clock, async_src.call(access.clone())).unwrap_err();
        assert_eq!(sync_err, async_err);
        assert_eq!(Source::stats(&sync), AsyncSource::stats(&async_src));
        let stats = AsyncSource::stats(&async_src).source;
        assert_eq!((stats.calls, stats.retries, stats.failures), (0, 1, 1));
    }

    #[test]
    fn blocking_source_bridges_policy_sources_without_time() {
        let (inst, methods, access) = setup();
        let inner = PolicySource::new(
            "policy",
            DeepWebSource::new(inst, methods, ResponsePolicy::FirstK(4)),
        );
        let bridged = BlockingSource::new(inner);
        assert_eq!(bridged.name(), "policy");
        let clock = VirtualClock::new();
        let resp = drive(&clock, bridged.call(access)).unwrap();
        assert_eq!(resp.len(), 4);
        assert_eq!(clock.now_micros(), 0);
        assert_eq!(bridged.stats().source.calls, 1);
        bridged.reset_stats();
        assert_eq!(bridged.stats().source.calls, 0);
    }

    #[test]
    fn blocking_source_with_virtual_latency_advances_the_clock() {
        let (inst, methods, access) = setup();
        let inner = PolicySource::new(
            "policy",
            DeepWebSource::new(inst, methods, ResponsePolicy::Exact),
        );
        let clock = VirtualClock::new();
        let bridged = BlockingSource::new(inner)
            .with_virtual_latency(LatencyModel::recorded(250), clock.clone());
        let resp = drive(&clock, bridged.call(access)).unwrap();
        assert_eq!(resp.len(), 10);
        assert_eq!(clock.now_micros(), 250);
        assert_eq!(bridged.stats().simulated_latency_micros, 250);
        bridged.reset_stats();
        assert_eq!(bridged.stats().simulated_latency_micros, 0);
    }
}
