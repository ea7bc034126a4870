//! The guard around one §IV pass: a deadline, panic isolation, and
//! poison-packet bisection.
//!
//! [`CollectionServer::regenerate`] runs every pass through a
//! `Supervisor`: the pass runs on the calling thread under
//! [`std::panic::catch_unwind`] and carries its own deadline, which it
//! checks between parallel jobs and between clustering merges, so an
//! overrunning pass stops itself within one job instead of running on in
//! the background; a poisoned reservoir costs one bounded attempt instead
//! of the server. The pass and every bisection probe borrow their slice
//! of the sample, so the guard copies no packet.
//!
//! When a guarded run fails, `regenerate` does not merely report it: it
//! **bisects** the sample (classic delta debugging — re-running the
//! pipeline on halves of the known-failing set) to find the packet(s)
//! that break it, quarantines them via
//! [`CollectionServer::quarantine_packets`] — which also bars them from
//! re-entering through raw intake — and retries on the cleaned
//! reservoir. Isolation is deliberately conservative: a half whose probe
//! only timed out is blamed only when its sibling half completes (on a
//! slow host both halves overrun, and no packet is to blame), and if
//! bisection cannot narrow the failure below a quarter of the sample,
//! nothing is quarantined (a systemic failure should page an operator,
//! not silently eat the reservoir) and the failure is surfaced as
//! [`RegenerateOutcome::TimedOut`] or [`RegenerateOutcome::Panicked`].
//!
//! [`CollectionServer::regenerate`]: crate::CollectionServer::regenerate
//! [`CollectionServer::quarantine_packets`]: crate::CollectionServer::quarantine_packets

use crate::server::RegenerateOutcome;
use leaksig_core::prelude::*;
use leaksig_http::HttpPacket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pipeline a regeneration pass runs.
///
/// Abstracted so tests can plant runners that panic or stall on chosen
/// packets; production uses [`DefaultRunner`].
pub trait PipelineRunner: Send + Sync + 'static {
    /// Cluster `sample`, generate signatures, and validate them against
    /// `normal` under `config`; `None` when the run gave up at
    /// `deadline`. A run that returns after `deadline` counts as timed
    /// out whatever it returns, so a runner that never checks the
    /// deadline still times out, only later.
    fn run(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
        deadline: Instant,
    ) -> Option<SignatureSet>;
}

/// The production pipeline: `leaksig_core`'s `regeneration_pass_until`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DefaultRunner;

impl PipelineRunner for DefaultRunner {
    fn run(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
        deadline: Instant,
    ) -> Option<SignatureSet> {
        let sample_refs: Vec<&HttpPacket> = sample.iter().collect();
        let normal_refs: Vec<&HttpPacket> = normal.iter().collect();
        regeneration_pass_until(&sample_refs, &normal_refs, config, deadline)
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
    /// Run the pipeline on the calling thread, due by `deadline_ms` from
    /// now. A panic is contained by `catch_unwind`; a run that gives up,
    /// or returns once the deadline has passed, timed out. The error is
    /// the attempt's [`RegenerateOutcome::TimedOut`] or
    /// [`RegenerateOutcome::Panicked`].
    pub(crate) fn run_guarded(
        &self,
        sample: &[HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> Result<SignatureSet, RegenerateOutcome> {
        let deadline_ms = self.config.deadline_ms;
        let start = Instant::now();
        // A budget past what `Instant` can hold is no deadline at all;
        // a century stands in for it.
        let deadline = start
            .checked_add(Duration::from_millis(deadline_ms))
            .unwrap_or_else(|| start + Duration::from_secs(100 * 365 * 86_400));
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.runner.run(sample, normal, config, deadline)
        }));
        match run {
            Err(payload) => Err(RegenerateOutcome::Panicked {
                message: panic_message(payload),
            }),
            Ok(Some(set)) if Instant::now() < deadline => Ok(set),
            Ok(_) => Err(RegenerateOutcome::TimedOut { deadline_ms }),
        }
    }

    /// Delta-debug a failing sample down to its poison subset.
    ///
    /// Repeatedly splits the known-failing range and keeps the half that
    /// fails alone: a half that panics is kept at once; a half that only
    /// timed out is kept when its sibling completes. Stops when a single
    /// packet remains, the probe budget runs out, both halves complete (an
    /// interaction effect) or both time out (the host is slow, not the
    /// packets). Returns `None` — quarantine nothing — when the narrowed
    /// set is still more than a quarter of the sample.
    pub(crate) fn isolate<'s>(
        &self,
        sample: &'s [HttpPacket],
        normal: &[HttpPacket],
        config: &PipelineConfig,
    ) -> Option<&'s [HttpPacket]> {
        let probe = |part: &[HttpPacket]| self.run_guarded(part, normal, config).err();
        let (mut lo, mut hi) = (0, sample.len());
        let mut probes = 0u32;
        while hi - lo > 1 && probes < self.config.max_probes {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            let first = probe(&sample[lo..mid]);
            if matches!(first, Some(RegenerateOutcome::Panicked { .. })) {
                hi = mid;
                continue;
            }
            if probes >= self.config.max_probes {
                break;
            }
            probes += 1;
            match (first, probe(&sample[mid..hi])) {
                (_, Some(RegenerateOutcome::Panicked { .. })) | (None, Some(_)) => lo = mid,
                (Some(_), None) => hi = mid,
                _ => break,
            }
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
            deadline: Instant,
        ) -> Option<SignatureSet> {
            assert!(
                !sample.iter().any(|p| p.request_line.path() == "/poison"),
                "clustering choked on a poison packet"
            );
            DefaultRunner.run(sample, normal, config, deadline)
        }
    }

    /// Stalls past any test deadline, unconditionally, without ever
    /// looking at it: an uncooperative runner.
    struct StallingRunner;

    impl PipelineRunner for StallingRunner {
        fn run(
            &self,
            _: &[HttpPacket],
            _: &[HttpPacket],
            _: &PipelineConfig,
            _: Instant,
        ) -> Option<SignatureSet> {
            std::thread::sleep(Duration::from_millis(250));
            Some(SignatureSet::default())
        }
    }

    /// A cooperative runner on a host too slow for any pass: every run
    /// works until its deadline, then gives up. Counts its runs.
    #[derive(Default)]
    struct OverrunningRunner {
        runs: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl PipelineRunner for OverrunningRunner {
        fn run(
            &self,
            _: &[HttpPacket],
            _: &[HttpPacket],
            _: &PipelineConfig,
            deadline: Instant,
        ) -> Option<SignatureSet> {
            self.runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            None
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
            fn run(
                &self,
                _: &[HttpPacket],
                _: &[HttpPacket],
                _: &PipelineConfig,
                _: Instant,
            ) -> Option<SignatureSet> {
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
        // The stalling runner ignored its deadline, so `regenerate`
        // returned only once it did; the late result still counts as
        // timed out. The same server, back on the production runner,
        // keeps working.
        let srv = srv.with_supervisor(SupervisorConfig::default(), Arc::new(DefaultRunner));
        assert!(srv.regenerate(20, &publisher).published().is_some());
        let ServerStats { regenerations, .. } = srv.stats();
        assert_eq!(regenerations, 1, "timed-out runs never count as runs");
    }

    /// On a host too slow for any pass every probe overruns too, so a
    /// timeout proves nothing about the packets: bisection blames no half,
    /// nothing is quarantined, and the reservoir survives whole.
    #[test]
    fn slow_host_quarantines_nothing() {
        let runner = OverrunningRunner::default();
        let runs = Arc::clone(&runner.runs);
        let srv = planted(
            SupervisorConfig {
                deadline_ms: 5,
                max_attempts: 3,
                max_probes: 12,
            },
            runner,
        );
        for i in 0..40 {
            srv.ingest(&leak(i));
        }
        let publisher = SignatureServer::new();
        assert_eq!(
            srv.regenerate(40, &publisher),
            RegenerateOutcome::TimedOut { deadline_ms: 5 }
        );
        assert_eq!(srv.stats().quarantined, 0);
        assert!(srv.quarantine_ledger().is_empty());
        assert_eq!(srv.reservoir_len(), 40, "reservoir intact");
        assert_eq!(publisher.version(), 0);
        // The attempt, then one probe of each half: both overran, so
        // bisection stopped there and no retry followed.
        assert_eq!(runs.load(std::sync::atomic::Ordering::Relaxed), 3);
    }

    /// A packet that makes every pass containing it overrun, while passes
    /// without it finish: the timed-out half is blamed because its sibling
    /// completes, and the packet is bisected out.
    #[test]
    fn stalling_packet_is_blamed_when_its_sibling_half_completes() {
        struct StallsOnPoison;
        impl PipelineRunner for StallsOnPoison {
            fn run(
                &self,
                sample: &[HttpPacket],
                normal: &[HttpPacket],
                config: &PipelineConfig,
                deadline: Instant,
            ) -> Option<SignatureSet> {
                // Gives up at once, as a pass that noticed its overrun.
                if sample.iter().any(|p| p.request_line.path() == "/poison") {
                    return None;
                }
                DefaultRunner.run(sample, normal, config, deadline)
            }
        }
        let srv = planted(
            SupervisorConfig {
                deadline_ms: 30_000,
                max_attempts: 3,
                max_probes: 16,
            },
            StallsOnPoison,
        );
        for i in 0..30 {
            srv.ingest(&leak(i));
        }
        srv.ingest(&marker());
        let publisher = SignatureServer::new();
        let outcome = srv.regenerate(64, &publisher);
        assert!(
            matches!(outcome, RegenerateOutcome::Published { version: 1, .. }),
            "got {outcome:?}"
        );
        assert_eq!(srv.stats().quarantined, 1);
        assert_eq!(srv.reservoir_len(), 30);
        let ledger = srv.quarantine_ledger();
        assert!(ledger.last().unwrap().summary.contains("/poison"));
    }

    /// The pass runs on the thread that calls `regenerate`: no handoff
    /// to a worker thread.
    #[test]
    fn the_pass_runs_on_the_calling_thread() {
        struct RecordsThread(Arc<std::sync::Mutex<Vec<std::thread::ThreadId>>>);
        impl PipelineRunner for RecordsThread {
            fn run(
                &self,
                sample: &[HttpPacket],
                normal: &[HttpPacket],
                config: &PipelineConfig,
                deadline: Instant,
            ) -> Option<SignatureSet> {
                self.0.lock().unwrap().push(std::thread::current().id());
                DefaultRunner.run(sample, normal, config, deadline)
            }
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let srv = planted(
            SupervisorConfig::default(),
            RecordsThread(Arc::clone(&seen)),
        );
        for i in 0..20 {
            srv.ingest(&leak(i));
        }
        let outcome = srv.regenerate(20, &SignatureServer::new());
        assert!(outcome.published().is_some(), "got {outcome:?}");
        assert_eq!(*seen.lock().unwrap(), vec![std::thread::current().id()]);
    }
}
