//! Supervised regeneration: deadlines, panic isolation, and
//! poison-packet bisection around the §IV pipeline.
//!
//! [`CollectionServer::regenerate`] runs the pipeline inline: a panic
//! unwinds into the caller and a pathological input can stall the
//! server's regeneration loop forever. The [`RegenerationSupervisor`]
//! wraps the same three phases (sample → run → publish) in a worker
//! thread guarded by a deadline and [`std::panic::catch_unwind`], so a
//! poisoned reservoir costs one bounded attempt instead of the server.
//!
//! When a guarded run fails, the supervisor does not merely report it:
//! it **bisects** the sampled reservoir (classic delta debugging —
//! re-running the pipeline on halves of the known-failing set) to find
//! the packet(s) that break it, quarantines them via
//! [`CollectionServer::quarantine_packets`] — which also bars them from
//! re-entering through raw intake — and retries on the cleaned
//! reservoir. Isolation is deliberately conservative: if bisection
//! cannot narrow the failure below a quarter of the sample, nothing is
//! quarantined (a systemic failure should page an operator, not silently
//! eat the reservoir) and the failure is surfaced as
//! [`RegenerateOutcome::TimedOut`] or [`RegenerateOutcome::Panicked`].

use crate::server::{CollectionServer, QuarantineReason, RegenerateOutcome};
use crate::store::SignatureServer;
use leaksig_core::prelude::*;
use leaksig_http::HttpPacket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The pipeline the supervisor guards.
///
/// Abstracted so tests can plant runners that panic or stall on chosen
/// packets; production uses [`DefaultRunner`], which is exactly the
/// inline `regenerate` path.
pub trait PipelineRunner: Send + Sync + 'static {
    /// Cluster `sample`, generate signatures, and validate them against
    /// `normal` under `config`.
    fn run(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> SignatureSet;
}

/// The production pipeline: `leaksig_core`'s `regeneration_pass`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultRunner;

impl PipelineRunner for DefaultRunner {
    fn run(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> SignatureSet {
        let sample_refs: Vec<&HttpPacket> = sample.iter().collect();
        let normal_refs: Vec<&HttpPacket> = normal.iter().collect();
        regeneration_pass(&sample_refs, &normal_refs, config)
    }
}

/// Supervisor tuning.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorConfig {
    /// Wall-clock budget per guarded pipeline run, in milliseconds.
    /// Bisection probes get the same budget each.
    pub deadline_ms: u64,
    /// Full regeneration attempts (initial + retries after quarantine).
    /// `1` disables bisection entirely: one guarded run, report its
    /// failure.
    pub max_attempts: u32,
    /// Guarded runs one bisection may spend narrowing a failure. Caps
    /// worst-case time at roughly `max_attempts * max_probes *
    /// deadline_ms` when everything times out.
    pub max_probes: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline_ms: 5_000,
            max_attempts: 3,
            max_probes: 12,
        }
    }
}

#[derive(Debug, Clone)]
enum Failure {
    Timeout,
    Panic(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Deadline- and panic-guarded driver for [`CollectionServer`]
/// regeneration. See the module docs for the failure-handling policy.
pub struct RegenerationSupervisor {
    config: SupervisorConfig,
    runner: Arc<dyn PipelineRunner>,
}

impl RegenerationSupervisor {
    /// A supervisor over the production pipeline.
    pub fn new(config: SupervisorConfig) -> Self {
        Self::with_runner(config, Arc::new(DefaultRunner))
    }

    /// A supervisor over a custom pipeline runner (fault-injection
    /// tests, instrumented builds).
    pub fn with_runner(config: SupervisorConfig, runner: Arc<dyn PipelineRunner>) -> Self {
        RegenerationSupervisor { config, runner }
    }

    /// Supervised counterpart of [`CollectionServer::regenerate`]: run
    /// the §IV pipeline over (up to) `n` reservoir packets under the
    /// configured deadline and publish to `publisher`.
    ///
    /// On a panic or deadline blowout, bisects for poison packets,
    /// quarantines any it can pin down, and retries on the cleaned
    /// reservoir (up to `max_attempts` total attempts). Failures never
    /// poison server state: counters, reservoir (minus quarantined
    /// packets), and the published set all stay valid, and the inline
    /// `regenerate` keeps working afterwards.
    pub fn regenerate<T: Copy + Eq + Send>(
        &self,
        server: &CollectionServer<T>,
        n: usize,
        publisher: &SignatureServer,
    ) -> RegenerateOutcome {
        let attempts = self.config.max_attempts.max(1);
        let mut last_failure = None;
        for attempt in 0..attempts {
            let Some((sample, normal)) = server.sample_for_regenerate(n) else {
                return RegenerateOutcome::NoTraffic;
            };
            let config = server.pipeline_config();
            match self.run_guarded(&sample, &normal, config) {
                Ok(set) => return server.account_publish(publisher.publish(&set), &set),
                Err(failure) => {
                    last_failure = Some(failure);
                    if attempt + 1 == attempts {
                        break;
                    }
                    match self.isolate(&sample, &normal, config) {
                        Some(poison) => {
                            server.quarantine_packets(&poison, QuarantineReason::Poison)
                        }
                        // Couldn't pin the failure on a small enough
                        // subset: systemic, not poison. Stop retrying.
                        None => break,
                    }
                }
            }
        }
        match last_failure {
            Some(Failure::Timeout) => RegenerateOutcome::TimedOut {
                deadline_ms: self.config.deadline_ms,
            },
            Some(Failure::Panic(message)) => RegenerateOutcome::Panicked { message },
            // `attempts >= 1`, so reaching here without a failure is
            // impossible; keep a sane value rather than panicking in
            // the component whose job is not to panic.
            None => RegenerateOutcome::NoTraffic,
        }
    }

    /// Run the pipeline on a detached worker under the deadline. A
    /// worker that overruns is abandoned (it holds only clones of the
    /// sample, so the cost is its own CPU until it finishes or dies);
    /// a worker that panics is contained by `catch_unwind`.
    fn run_guarded(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> Result<SignatureSet, Failure> {
        let (tx, rx) = mpsc::channel();
        let runner = Arc::clone(&self.runner);
        let sample = sample.to_vec();
        let normal = normal.to_vec();
        let config = config.clone();
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| runner.run(&sample, &normal, &config)));
            let _ = tx.send(result.map_err(panic_message));
        });
        match rx.recv_timeout(Duration::from_millis(self.config.deadline_ms)) {
            Ok(Ok(set)) => Ok(set),
            Ok(Err(message)) => Err(Failure::Panic(message)),
            Err(_) => Err(Failure::Timeout),
        }
    }

    /// Delta-debug a failing sample down to its poison subset.
    ///
    /// Repeatedly splits the known-failing set and keeps whichever half
    /// still fails alone; stops when a single packet remains, the probe
    /// budget runs out, or neither half reproduces the failure (an
    /// interaction effect). Returns `None` — quarantine nothing — when
    /// the narrowed set is still more than a quarter of the sample.
    fn isolate(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> Option<Vec<HttpPacket>> {
        let mut failing = sample.to_vec();
        let mut probes = 0u32;
        while failing.len() > 1 && probes < self.config.max_probes {
            let mid = failing.len() / 2;
            probes += 1;
            if self.run_guarded(&failing[..mid], normal, config).is_err() {
                failing.truncate(mid);
                continue;
            }
            if probes >= self.config.max_probes {
                break;
            }
            probes += 1;
            if self.run_guarded(&failing[mid..], normal, config).is_err() {
                failing.drain(..mid);
                continue;
            }
            break;
        }
        if failing.len() == 1 || failing.len() * 4 <= sample.len() {
            Some(failing)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{IngestOutcome, ServerStats};
    use leaksig_core::payload::PayloadCheck;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak(i: usize) -> HttpPacket {
        // `n` keeps every packet distinct: quarantine removes *equal*
        // reservoir entries, and these tests count removals one by one.
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", &(i % 9).to_string())
            .query("n", &i.to_string())
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn marker() -> HttpPacket {
        RequestBuilder::get("/poison")
            .query("imei", "355195000000017")
            .query("trip", "wire")
            .destination(Ipv4Addr::new(203, 0, 113, 66), 80, "poison.example")
            .build()
    }

    fn server() -> CollectionServer<&'static str> {
        CollectionServer::new(
            PayloadCheck::new([("imei", "355195000000017")]),
            PipelineConfig::default(),
            64,
            7,
        )
    }

    /// Panics — as the real clustering path would on a hypothetical
    /// malformed invariant — whenever the poison marker is sampled.
    struct TrippingRunner;

    impl PipelineRunner for TrippingRunner {
        fn run(
            &self,
            sample: &[HttpPacket],
            normal: &[HttpPacket],
            config: &PipelineConfig,
        ) -> SignatureSet {
            assert!(
                !sample.iter().any(|p| p.request_line.path() == "/poison"),
                "clustering choked on a poison packet"
            );
            DefaultRunner.run(sample, normal, config)
        }
    }

    /// Stalls past any test deadline, unconditionally.
    struct StallingRunner;

    impl PipelineRunner for StallingRunner {
        fn run(&self, _: &[HttpPacket], _: &[HttpPacket], _: &PipelineConfig) -> SignatureSet {
            std::thread::sleep(Duration::from_millis(250));
            SignatureSet::default()
        }
    }

    #[test]
    fn happy_path_matches_inline_regenerate() {
        let srv = server();
        for i in 0..50 {
            srv.ingest(&leak(i));
        }
        let publisher = SignatureServer::new();
        let sup = RegenerationSupervisor::new(SupervisorConfig::default());
        let outcome = sup.regenerate(&srv, 20, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
            "got {outcome:?}"
        );
        assert_eq!(srv.stats().quarantined, 0, "nothing was bisected away");
    }

    #[test]
    fn empty_reservoir_is_no_traffic() {
        let srv = server();
        let sup = RegenerationSupervisor::new(SupervisorConfig::default());
        assert_eq!(
            sup.regenerate(&srv, 20, &SignatureServer::new()),
            RegenerateOutcome::NoTraffic
        );
    }

    #[test]
    fn poison_packet_is_bisected_quarantined_and_regenerate_succeeds() {
        let srv = server();
        for i in 0..30 {
            srv.ingest(&leak(i));
        }
        srv.ingest(&marker());
        assert_eq!(srv.reservoir_len(), 31);

        let publisher = SignatureServer::new();
        let sup = RegenerationSupervisor::with_runner(
            SupervisorConfig {
                deadline_ms: 30_000,
                max_attempts: 3,
                max_probes: 16,
            },
            Arc::new(TrippingRunner),
        );
        // Sample the whole reservoir so the poison is guaranteed in.
        let outcome = sup.regenerate(&srv, 64, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
            "retry after quarantine must publish, got {outcome:?}"
        );

        // The poison — and only the poison — landed in quarantine.
        assert_eq!(srv.stats().quarantined, 1);
        assert_eq!(srv.reservoir_len(), 30);
        let ledger = srv.quarantine_ledger();
        let record = ledger.last().unwrap();
        assert_eq!(record.reason, QuarantineReason::Poison);
        assert!(
            record.summary.contains("/poison"),
            "got {:?}",
            record.summary
        );

        // ...and it cannot sneak back in through raw intake.
        let raw = marker().to_bytes();
        assert_eq!(
            srv.ingest_raw(&raw, Ipv4Addr::new(203, 0, 113, 66), 80),
            IngestOutcome::Quarantined(QuarantineReason::PoisonReingest)
        );

        // Devices get the cleaned set.
        let store = crate::store::SignatureStore::new();
        assert!(store.sync(&publisher).unwrap());
        assert!(store.match_packet(&leak(999)).is_some());
    }

    #[test]
    fn panic_message_surfaces_when_isolation_is_refused() {
        // Every packet is poison ⇒ bisection narrows to one packet per
        // attempt but the failure persists; after max_attempts the
        // supervisor reports the panic instead of eating the reservoir.
        struct AlwaysPanics;
        impl PipelineRunner for AlwaysPanics {
            fn run(&self, _: &[HttpPacket], _: &[HttpPacket], _: &PipelineConfig) -> SignatureSet {
                panic!("synthetic pipeline defect");
            }
        }
        let srv = server();
        for i in 0..20 {
            srv.ingest(&leak(i));
        }
        let sup = RegenerationSupervisor::with_runner(
            SupervisorConfig {
                deadline_ms: 30_000,
                max_attempts: 2,
                max_probes: 8,
            },
            Arc::new(AlwaysPanics),
        );
        let publisher = SignatureServer::new();
        let outcome = sup.regenerate(&srv, 20, &publisher);
        let RegenerateOutcome::Panicked { message } = outcome else {
            panic!("expected Panicked, got {outcome:?}");
        };
        assert!(message.contains("synthetic pipeline defect"));
        assert_eq!(publisher.version(), 0);
        // At most (max_attempts - 1) quarantine rounds happened; the
        // reservoir survives essentially intact and inline regeneration
        // still works.
        assert!(srv.reservoir_len() >= 19, "len {}", srv.reservoir_len());
        assert!(srv.regenerate(20, &publisher).published().is_some());
    }

    #[test]
    fn deadline_blowout_reports_timed_out_without_poisoning_state() {
        let srv = server();
        for i in 0..20 {
            srv.ingest(&leak(i));
        }
        let sup = RegenerationSupervisor::with_runner(
            SupervisorConfig {
                deadline_ms: 20,
                max_attempts: 1, // no bisection: a single guarded run
                max_probes: 0,
            },
            Arc::new(StallingRunner),
        );
        let publisher = SignatureServer::new();
        assert_eq!(
            sup.regenerate(&srv, 20, &publisher),
            RegenerateOutcome::TimedOut { deadline_ms: 20 }
        );
        assert_eq!(publisher.version(), 0);
        assert_eq!(srv.reservoir_len(), 20, "reservoir untouched");
        // The abandoned worker finishes in the background; meanwhile the
        // server keeps working inline.
        assert!(srv.regenerate(20, &publisher).published().is_some());
        let ServerStats { regenerations, .. } = srv.stats();
        assert_eq!(regenerations, 1, "timed-out runs never count as runs");
    }
}
