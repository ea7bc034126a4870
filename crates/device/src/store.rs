//! Signature distribution: the server side publishes versioned signature
//! sets; the device-side store fetches and swaps them atomically.
//!
//! This models Fig. 3's arrow from the clustering server to the
//! information-flow-control application. Transport is the `leaksig-core`
//! wire format; "fetching" is an in-process call here, but the store only
//! ever sees wire text, so swapping in a real HTTP fetch changes nothing
//! else.

use leaksig_core::audit;
use leaksig_core::prelude::*;
use leaksig_core::wire;
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a signature set was refused at the deployment boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The wire text failed to parse.
    Wire(WireError),
    /// The set parsed but carries Error-level audit findings (§VI
    /// false-positive hazards); see [`leaksig_core::audit::deploy_check`].
    Rejected(Vec<Diagnostic>),
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::Wire(e) => e.fmt(f),
            InstallError::Rejected(diags) => write!(
                f,
                "deploy gate rejected the set: {} error(s), first: {}",
                diags.len(),
                diags
                    .first()
                    .map(|d| d.to_string())
                    .unwrap_or_else(|| "<none>".to_string())
            ),
        }
    }
}

impl std::error::Error for InstallError {}

impl From<WireError> for InstallError {
    fn from(e: WireError) -> Self {
        InstallError::Wire(e)
    }
}

/// The publishing side: holds the current signature set and its version.
#[derive(Debug, Default)]
pub struct SignatureServer {
    inner: RwLock<(u64, String)>,
}

impl SignatureServer {
    /// An empty server at version 0.
    pub fn new() -> Self {
        SignatureServer {
            inner: RwLock::new((0, wire::encode(&SignatureSet::default()))),
        }
    }

    /// Publish a new signature set, bumping the version. Sets carrying
    /// Error-level audit findings are refused: a server distributing a
    /// §VI match-everything signature would turn every device into a
    /// false-prompt generator. Use
    /// [`SignatureServer::publish_unchecked`] to bypass the gate
    /// deliberately.
    pub fn publish(&self, set: &SignatureSet) -> Result<u64, Vec<Diagnostic>> {
        audit::deploy_check(set)?;
        Ok(self.publish_unchecked(set))
    }

    /// [`SignatureServer::publish`] without the deploy gate (for studying
    /// pathological sets, or when the caller already gated).
    pub fn publish_unchecked(&self, set: &SignatureSet) -> u64 {
        let mut guard = self.inner.write();
        guard.0 += 1;
        guard.1 = wire::encode(set);
        guard.0
    }

    /// Restore a previously published generation verbatim — version and
    /// wire text — without re-auditing or bumping. Used after crash
    /// recovery so a restarted server hands devices the exact bytes it
    /// was distributing before, at the same version number.
    pub fn restore(&self, version: u64, wire_text: &str) {
        let mut guard = self.inner.write();
        guard.0 = version;
        guard.1 = wire_text.to_string();
    }

    /// Current version.
    pub fn version(&self) -> u64 {
        self.inner.read().0
    }

    /// Fetch the wire text if the caller's version is stale.
    pub fn fetch(&self, have_version: u64) -> Option<(u64, String)> {
        let guard = self.inner.read();
        (guard.0 > have_version).then(|| (guard.0, guard.1.clone()))
    }
}

/// Trustworthiness of the installed signature set, as seen by the
/// enforcement gate.
///
/// Staleness is measured in *logical sync generations* — consecutive
/// failed sync rounds — not wall-clock time, so chaos tests and real
/// deployments share the same semantics deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Nothing was ever installed (version 0). The device cannot detect
    /// anything yet.
    Empty,
    /// The last sync round succeeded (installed or confirmed up to date).
    Fresh,
    /// `rounds` consecutive sync rounds have failed since the last
    /// success; the installed set may lag the server arbitrarily.
    Stale {
        /// Consecutive failed sync rounds.
        rounds: u64,
    },
    /// Restore-from-disk found only corrupt snapshots; the store is
    /// running on an empty set it cannot vouch for.
    Corrupt,
}

impl std::fmt::Display for StoreHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreHealth::Empty => write!(f, "empty"),
            StoreHealth::Fresh => write!(f, "fresh"),
            StoreHealth::Stale { rounds } => write!(f, "stale ({rounds} failed rounds)"),
            StoreHealth::Corrupt => write!(f, "corrupt"),
        }
    }
}

/// Device-side store: the detector currently in force plus its version
/// and the wire text it was installed from (kept for persistence).
#[derive(Debug)]
pub struct SignatureStore {
    inner: RwLock<StoreState>,
    /// Detector compilations performed by this store — bumps once per
    /// installed generation, never per packet (the gate's hot path must
    /// not recompile; see [`SignatureStore::compilations`]).
    compilations: AtomicU64,
}

#[derive(Debug)]
struct StoreState {
    version: u64,
    detector: Detector,
    wire_text: String,
    /// Consecutive failed sync rounds since the last success.
    stale_rounds: u64,
    /// Set when restore-from-disk could not produce a trusted snapshot.
    corrupt: bool,
}

impl StoreState {
    fn health(&self) -> StoreHealth {
        if self.corrupt {
            StoreHealth::Corrupt
        } else if self.version == 0 {
            StoreHealth::Empty
        } else if self.stale_rounds > 0 {
            StoreHealth::Stale {
                rounds: self.stale_rounds,
            }
        } else {
            StoreHealth::Fresh
        }
    }
}

impl Default for SignatureStore {
    fn default() -> Self {
        SignatureStore {
            inner: RwLock::new(StoreState {
                version: 0,
                detector: Detector::new(SignatureSet::default()),
                wire_text: wire::encode(&SignatureSet::default()),
                stale_rounds: 0,
                corrupt: false,
            }),
            compilations: AtomicU64::new(1),
        }
    }
}

impl SignatureStore {
    /// An empty store at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Version of the installed set.
    pub fn version(&self) -> u64 {
        self.inner.read().version
    }

    /// Number of installed signatures.
    pub fn signature_count(&self) -> usize {
        self.inner.read().detector.signatures().len()
    }

    /// Current health (see [`StoreHealth`]).
    pub fn health(&self) -> StoreHealth {
        self.inner.read().health()
    }

    /// Run `f` on the health and the installed detector under one read
    /// of the store, so both describe the same generation (the gate's
    /// per-packet path).
    pub(crate) fn read<R>(&self, f: impl FnOnce(StoreHealth, &Detector) -> R) -> R {
        let st = self.inner.read();
        f(st.health(), &st.detector)
    }

    /// Record a successful sync round that confirmed the installed set is
    /// current (a fresh install resets staleness by itself).
    pub fn note_sync_success(&self) {
        let mut st = self.inner.write();
        st.stale_rounds = 0;
        st.corrupt = false;
    }

    /// Record a failed sync round (every attempt exhausted). Each call
    /// ages the store by one logical generation.
    pub fn note_sync_failure(&self) {
        let mut st = self.inner.write();
        st.stale_rounds = st.stale_rounds.saturating_add(1);
    }

    /// Mark the store as running without a trusted snapshot (restore
    /// found only corruption). Cleared by the next successful install.
    pub fn mark_corrupt(&self) {
        self.inner.write().corrupt = true;
    }

    /// Install a set from wire text at an explicit version. Decoded sets
    /// pass through the deploy gate: Error-level audit findings refuse
    /// the install and leave the store unchanged (the device keeps
    /// detecting with what it has rather than adopt a §VI hazard). Use
    /// [`SignatureStore::install_unchecked`] to bypass deliberately.
    pub fn install(&self, version: u64, wire_text: &str) -> Result<(), InstallError> {
        let set = wire::decode(wire_text)?;
        audit::deploy_check(&set).map_err(InstallError::Rejected)?;
        self.commit(version, set, wire_text);
        Ok(())
    }

    /// [`SignatureStore::install`] without the deploy gate; the wire text
    /// must still parse.
    pub fn install_unchecked(&self, version: u64, wire_text: &str) -> Result<(), WireError> {
        let set = wire::decode(wire_text)?;
        self.commit(version, set, wire_text);
        Ok(())
    }

    /// Swap in a fully validated set. A successful install is by
    /// definition a successful sync generation: staleness and the corrupt
    /// flag reset.
    fn commit(&self, version: u64, set: SignatureSet, wire_text: &str) {
        // Compile outside the write lock: matching blocks only for the
        // pointer swap, not for automaton construction.
        let detector = Detector::new(set);
        self.compilations.fetch_add(1, Ordering::Relaxed);
        let mut st = self.inner.write();
        st.version = version;
        st.detector = detector;
        st.wire_text = wire_text.to_string();
        st.stale_rounds = 0;
        st.corrupt = false;
    }

    /// How many times this store has compiled a detection engine: once at
    /// construction (the empty set) plus once per installed generation.
    /// Per-packet calls ([`SignatureStore::match_packet`],
    /// [`SignatureStore::explain`]) never change it — the compiled
    /// automaton is reused across the whole generation.
    pub fn compilations(&self) -> u64 {
        self.compilations.load(Ordering::Relaxed)
    }

    /// The wire text of the installed set (persistence support).
    pub fn wire_text(&self) -> String {
        self.inner.read().wire_text.clone()
    }

    /// Pull from `server` if it has something newer. Returns `true` when
    /// an update was installed.
    pub fn sync(&self, server: &SignatureServer) -> Result<bool, InstallError> {
        let have = self.version();
        match server.fetch(have) {
            Some((version, text)) => match self.install(version, &text) {
                Ok(()) => Ok(true),
                Err(e) => {
                    self.note_sync_failure();
                    Err(e)
                }
            },
            None => {
                self.note_sync_success();
                Ok(false)
            }
        }
    }

    /// Run the installed detector against a packet.
    pub fn match_packet(&self, packet: &leaksig_http::HttpPacket) -> Option<Detection> {
        self.inner.read().detector.match_packet(packet)
    }

    /// Detection evidence for a user prompt (see [`Explanation`]).
    pub fn explain(&self, packet: &leaksig_http::HttpPacket) -> Option<Explanation> {
        self.inner.read().detector.explain(packet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leaksig_http::RequestBuilder;
    use std::net::Ipv4Addr;

    fn leak_packet(slot: &str) -> leaksig_http::HttpPacket {
        RequestBuilder::get("/getad")
            .query("imei", "355195000000017")
            .query("slot", slot)
            .destination(Ipv4Addr::new(203, 0, 113, 3), 80, "ad-maker.info")
            .build()
    }

    fn one_signature_set() -> SignatureSet {
        let (a, b) = (leak_packet("1"), leak_packet("2"));
        generate_signatures(&[&a, &b], &{
            let mut cfg = PipelineConfig::default();
            cfg.signature.include_singletons = false;
            cfg
        })
    }

    #[test]
    fn fresh_store_matches_nothing() {
        let store = SignatureStore::new();
        assert_eq!(store.version(), 0);
        assert_eq!(store.signature_count(), 0);
        assert!(store.match_packet(&leak_packet("9")).is_none());
    }

    #[test]
    fn publish_sync_detect() {
        let server = SignatureServer::new();
        let store = SignatureStore::new();
        assert!(!store.sync(&server).unwrap(), "nothing to fetch yet");

        let v = server.publish(&one_signature_set()).unwrap();
        assert_eq!(v, 1);
        assert!(store.sync(&server).unwrap());
        assert_eq!(store.version(), 1);
        assert!(store.signature_count() >= 1);
        assert!(store.match_packet(&leak_packet("42")).is_some());

        // Second sync is a no-op.
        assert!(!store.sync(&server).unwrap());
    }

    #[test]
    fn republish_bumps_version_and_replaces() {
        let server = SignatureServer::new();
        let store = SignatureStore::new();
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();

        // Publish an empty set: detection must stop.
        let v2 = server.publish(&SignatureSet::default()).unwrap();
        assert_eq!(v2, 2);
        assert!(store.sync(&server).unwrap());
        assert_eq!(store.version(), 2);
        assert!(store.match_packet(&leak_packet("7")).is_none());
    }

    #[test]
    fn corrupt_wire_is_rejected_and_store_unchanged() {
        let store = SignatureStore::new();
        let server = SignatureServer::new();
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        let before = store.signature_count();

        assert!(matches!(
            store.install(9, "garbage"),
            Err(InstallError::Wire(_))
        ));
        assert_eq!(store.version(), 1, "failed install must not bump version");
        assert_eq!(store.signature_count(), before);
    }

    /// A §VI pathological set (boilerplate-only token, no anchor) on the
    /// wire: encoded fine, parsed fine — refused at install time, and the
    /// store keeps detecting with what it had.
    fn pathological_wire() -> String {
        let set = SignatureSet {
            signatures: vec![leaksig_core::signature::ConjunctionSignature {
                id: 0,
                tokens: vec![leaksig_core::signature::FieldToken::new(
                    leaksig_core::signature::Field::RequestLine,
                    &b"POST /x"[..],
                )],
                cluster_size: 9,
                hosts: vec![],
            }],
        };
        wire::encode(&set)
    }

    #[test]
    fn deploy_gate_refuses_pathological_sets_by_default() {
        let store = SignatureStore::new();
        let server = SignatureServer::new();
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        let before = store.signature_count();

        let err = store.install(2, &pathological_wire()).unwrap_err();
        let InstallError::Rejected(diags) = &err else {
            panic!("expected gate rejection, got {err:?}");
        };
        assert!(diags.iter().any(|d| d.code == Code::MissingAnchor));
        assert!(err.to_string().contains("deploy gate"));
        assert_eq!(store.version(), 1, "store must be unchanged");
        assert_eq!(store.signature_count(), before);

        // The publisher refuses the same set at the source.
        let bad = wire::decode(&pathological_wire()).unwrap();
        assert!(server.publish(&bad).is_err());
    }

    #[test]
    fn health_tracks_sync_generations() {
        let store = SignatureStore::new();
        assert_eq!(store.health(), StoreHealth::Empty);

        let server = SignatureServer::new();
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        assert_eq!(store.health(), StoreHealth::Fresh);

        // Failed rounds age the store one generation at a time.
        store.note_sync_failure();
        assert_eq!(store.health(), StoreHealth::Stale { rounds: 1 });
        store.note_sync_failure();
        assert_eq!(store.health(), StoreHealth::Stale { rounds: 2 });

        // An up-to-date confirmation heals it.
        store.note_sync_success();
        assert_eq!(store.health(), StoreHealth::Fresh);

        // Corruption dominates until the next trusted install.
        store.mark_corrupt();
        assert_eq!(store.health(), StoreHealth::Corrupt);
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        assert_eq!(store.health(), StoreHealth::Fresh);
    }

    #[test]
    fn failed_install_ages_health_via_sync() {
        let server = SignatureServer::new();
        let store = SignatureStore::new();
        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();

        // Push a pathological set past the publisher gate, then watch the
        // device-side sync refuse it and record the failed round.
        let bad = wire::decode(&pathological_wire()).unwrap();
        server.publish_unchecked(&bad);
        assert!(store.sync(&server).is_err());
        assert_eq!(store.health(), StoreHealth::Stale { rounds: 1 });
        assert_eq!(store.version(), 1, "rejected set is never installed");
    }

    /// The engine compiles once per installed generation, never per
    /// packet: repeated matching through the store and through the gate
    /// leaves the compilation counter untouched; each install bumps it
    /// by exactly one.
    #[test]
    fn engine_compiles_once_per_generation_not_per_packet() {
        let server = SignatureServer::new();
        let store = SignatureStore::new();
        assert_eq!(
            store.compilations(),
            1,
            "construction compiles the empty set"
        );

        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        assert_eq!(store.compilations(), 2, "install is one compilation");

        for slot in 0..200 {
            store.match_packet(&leak_packet(&slot.to_string()));
            store.explain(&leak_packet(&slot.to_string()));
        }
        assert_eq!(store.compilations(), 2, "matching must not recompile");

        let gate = crate::gate::PacketGate::new(&store);
        for slot in 0..200 {
            match gate.intercept("app.x", &leak_packet(&slot.to_string())) {
                crate::gate::GateAction::PendingPrompt { prompt_id, .. } => {
                    gate.answer(prompt_id, crate::policy::UserChoice::BlockAlways)
                        .unwrap();
                }
                crate::gate::GateAction::Blocked { .. } => {}
                other => panic!("leak not enforced: {other:?}"),
            }
        }
        assert_eq!(store.compilations(), 2, "interception must not recompile");

        server.publish(&one_signature_set()).unwrap();
        store.sync(&server).unwrap();
        assert_eq!(store.compilations(), 3, "next generation, next compile");

        // Failed installs never reach the compiler.
        assert!(store.install(9, "garbage").is_err());
        assert!(store.install(9, &pathological_wire()).is_err());
        assert_eq!(store.compilations(), 3);
    }

    #[test]
    fn unchecked_override_installs_anyway() {
        let store = SignatureStore::new();
        store.install_unchecked(5, &pathological_wire()).unwrap();
        assert_eq!(store.version(), 5);
        assert_eq!(store.signature_count(), 1);
        // The override still requires parseable wire text.
        assert!(store.install_unchecked(6, "garbage").is_err());

        let server = SignatureServer::new();
        let bad = wire::decode(&pathological_wire()).unwrap();
        assert_eq!(server.publish_unchecked(&bad), 1);
    }
}
