//! The guard around one §IV pass: a deadline, panic isolation, and
//! poison-packet bisection.
//!
//! [`CollectionServer::regenerate`] runs every pass through a
//! `Supervisor`: the pass runs on a worker thread guarded by a deadline
//! and [`std::panic::catch_unwind`], so a poisoned reservoir costs one
//! bounded attempt instead of the server. The sample and the normal slice
//! move into the worker as shared slices, so the guard copies no packet
//! on the success path.
//!
//! When a guarded run fails, `regenerate` does not merely report it: it
//! **bisects** the sample (classic delta debugging — re-running the
//! pipeline on halves of the known-failing set) to find the packet(s)
//! that break it, quarantines them via
//! [`CollectionServer::quarantine_packets`] — which also bars them from
//! re-entering through raw intake — and retries on the cleaned
//! reservoir. Isolation is deliberately conservative: if bisection
//! cannot narrow the failure below a quarter of the sample, nothing is
//! quarantined (a systemic failure should page an operator, not silently
//! eat the reservoir) and the failure is surfaced as
//! [`RegenerateOutcome::TimedOut`] or [`RegenerateOutcome::Panicked`].
//!
//! [`CollectionServer::regenerate`]: crate::CollectionServer::regenerate
//! [`CollectionServer::quarantine_packets`]: crate::CollectionServer::quarantine_packets

use crate::server::RegenerateOutcome;
use leaksig_core::prelude::*;
use leaksig_http::HttpPacket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The pipeline a regeneration pass runs.
///
/// Abstracted so tests can plant runners that panic or stall on chosen
/// packets; production uses [`DefaultRunner`].
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

/// How [`CollectionServer::regenerate`] guards its passes.
///
/// [`CollectionServer::regenerate`]: crate::CollectionServer::regenerate
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

/// A packet slice a pass's worker shares with `regenerate`.
pub(crate) type Packets = Arc<[HttpPacket]>;

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A [`SupervisorConfig`] and the runner it guards.
pub(crate) struct Supervisor {
    pub(crate) config: SupervisorConfig,
    pub(crate) runner: Arc<dyn PipelineRunner>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            config: SupervisorConfig::default(),
            runner: Arc::new(DefaultRunner),
        }
    }
}

impl Supervisor {
    /// Run the pipeline on a detached worker under the deadline. A
    /// worker that overruns is abandoned (it holds only shared handles
    /// on the sample, so the cost is its own CPU until it finishes or
    /// dies); a worker that panics is contained by `catch_unwind`. The
    /// error is the attempt's [`RegenerateOutcome::TimedOut`] or
    /// [`RegenerateOutcome::Panicked`].
    pub(crate) fn run_guarded(
        &self,
        sample: &Packets,
        normal: &Packets,
        config: &PipelineConfig,
    ) -> Result<SignatureSet, RegenerateOutcome> {
        let (tx, rx) = mpsc::channel();
        let runner = Arc::clone(&self.runner);
        let (sample, normal) = (Arc::clone(sample), Arc::clone(normal));
        let config = config.clone();
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| runner.run(&sample, &normal, &config)));
            let _ = tx.send(result.map_err(panic_message));
        });
        let deadline_ms = self.config.deadline_ms;
        match rx.recv_timeout(Duration::from_millis(deadline_ms)) {
            Ok(Ok(set)) => Ok(set),
            Ok(Err(message)) => Err(RegenerateOutcome::Panicked { message }),
            Err(_) => Err(RegenerateOutcome::TimedOut { deadline_ms }),
        }
    }

    /// Delta-debug a failing sample down to its poison subset.
    ///
    /// Repeatedly splits the known-failing range and keeps whichever half
    /// still fails alone; stops when a single packet remains, the probe
    /// budget runs out, or neither half reproduces the failure (an
    /// interaction effect). Returns `None` — quarantine nothing — when
    /// the narrowed set is still more than a quarter of the sample.
    pub(crate) fn isolate<'s>(
        &self,
        sample: &'s [HttpPacket],
        normal: &Packets,
        config: &PipelineConfig,
    ) -> Option<&'s [HttpPacket]> {
        let fails = |part: &[HttpPacket]| self.run_guarded(&part.into(), normal, config).is_err();
        let (mut lo, mut hi) = (0, sample.len());
        let mut probes = 0u32;
        while hi - lo > 1 && probes < self.config.max_probes {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            if fails(&sample[lo..mid]) {
                hi = mid;
                continue;
            }
            if probes >= self.config.max_probes {
                break;
            }
            probes += 1;
            if fails(&sample[mid..hi]) {
                lo = mid;
                continue;
            }
            break;
        }
        let failing = &sample[lo..hi];
        (failing.len() == 1 || failing.len() * 4 <= sample.len()).then_some(failing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{CollectionServer, IngestOutcome, QuarantineReason, ServerStats};
    use crate::store::SignatureServer;
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

    /// `server()` whose passes run `runner` under `config`.
    fn planted(
        config: SupervisorConfig,
        runner: impl PipelineRunner,
    ) -> CollectionServer<&'static str> {
        server().with_supervisor(config, Arc::new(runner))
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
    fn happy_path_publishes_without_quarantine() {
        let srv = server();
        for i in 0..50 {
            srv.ingest(&leak(i));
        }
        let publisher = SignatureServer::new();
        let outcome = srv.regenerate(20, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
            "got {outcome:?}"
        );
        assert_eq!(srv.stats().quarantined, 0, "nothing was bisected away");
    }

    #[test]
    fn empty_reservoir_is_no_traffic() {
        assert_eq!(
            server().regenerate(20, &SignatureServer::new()),
            RegenerateOutcome::NoTraffic
        );
    }

    #[test]
    fn poison_packet_is_bisected_quarantined_and_regenerate_succeeds() {
        let srv = planted(
            SupervisorConfig {
                deadline_ms: 30_000,
                max_attempts: 3,
                max_probes: 16,
            },
            TrippingRunner,
        );
        for i in 0..30 {
            srv.ingest(&leak(i));
        }
        srv.ingest(&marker());
        assert_eq!(srv.reservoir_len(), 31);

        let publisher = SignatureServer::new();
        // Sample the whole reservoir so the poison is guaranteed in.
        let outcome = srv.regenerate(64, &publisher);
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
        // server reports the panic instead of eating the reservoir.
        struct AlwaysPanics;
        impl PipelineRunner for AlwaysPanics {
            fn run(&self, _: &[HttpPacket], _: &[HttpPacket], _: &PipelineConfig) -> SignatureSet {
                panic!("synthetic pipeline defect");
            }
        }
        let srv = planted(
            SupervisorConfig {
                deadline_ms: 30_000,
                max_attempts: 2,
                max_probes: 8,
            },
            AlwaysPanics,
        );
        for i in 0..20 {
            srv.ingest(&leak(i));
        }
        let publisher = SignatureServer::new();
        let outcome = srv.regenerate(20, &publisher);
        let RegenerateOutcome::Panicked { message } = outcome else {
            panic!("expected Panicked, got {outcome:?}");
        };
        assert!(message.contains("synthetic pipeline defect"));
        assert_eq!(publisher.version(), 0);
        // At most (max_attempts - 1) quarantine rounds happened; the
        // reservoir survives essentially intact and the same server,
        // back on the production runner, still publishes.
        assert!(srv.reservoir_len() >= 19, "len {}", srv.reservoir_len());
        let srv = srv.with_supervisor(SupervisorConfig::default(), Arc::new(DefaultRunner));
        assert!(srv.regenerate(20, &publisher).published().is_some());
    }

    #[test]
    fn deadline_blowout_reports_timed_out_without_poisoning_state() {
        let srv = planted(
            SupervisorConfig {
                deadline_ms: 20,
                max_attempts: 1, // no bisection: a single guarded run
                max_probes: 0,
            },
            StallingRunner,
        );
        for i in 0..20 {
            srv.ingest(&leak(i));
        }
        let publisher = SignatureServer::new();
        assert_eq!(
            srv.regenerate(20, &publisher),
            RegenerateOutcome::TimedOut { deadline_ms: 20 }
        );
        assert_eq!(publisher.version(), 0);
        assert_eq!(srv.reservoir_len(), 20, "reservoir untouched");
        // The abandoned worker finishes in the background; meanwhile the
        // same server, back on the production runner, keeps working.
        let srv = srv.with_supervisor(SupervisorConfig::default(), Arc::new(DefaultRunner));
        assert!(srv.regenerate(20, &publisher).published().is_some());
        let ServerStats { regenerations, .. } = srv.stats();
        assert_eq!(regenerations, 1, "timed-out runs never count as runs");
    }
}
