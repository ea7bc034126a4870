//! Property tests for the device crate's untrusted-input surfaces: the
//! persistence decoders and the crash-safe snapshot vault must be total
//! (error, never panic) on arbitrary, truncated, or bit-flipped input,
//! and a torn write must never surface as a half-installed store.

use leaksig_core::prelude::*;
use leaksig_core::signature::{ConjunctionSignature, Field, FieldToken};
use leaksig_core::wire;
use leaksig_device::persist::{
    decode_policy, decode_store, encode_policy, encode_store, SnapshotVault,
};
use leaksig_device::{PolicyEngine, SignatureStore, StoreHealth, UserChoice};
use leaksig_faults::{CrashFlavor, FaultyDisk, RealDisk};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_token() -> impl Strategy<Value = FieldToken> {
    (
        prop_oneof![
            Just(Field::RequestLine),
            Just(Field::Cookie),
            Just(Field::Body),
        ],
        // Long enough that the deploy gate's anchor-length check (which
        // `decode_store` runs on restore) accepts the signature.
        proptest::collection::vec(any::<u8>(), 12..24),
        any::<u32>(),
    )
        .prop_map(|(field, bytes, hint)| FieldToken::with_hint(field, bytes, hint))
}

/// Signature sets that (almost always) pass the deploy gate: unique ids,
/// anchor-length tokens. Cases the gate still rejects are discarded via
/// `prop_assume!` at the use site.
fn arb_set() -> impl Strategy<Value = SignatureSet> {
    proptest::collection::vec(
        (
            1usize..20,
            proptest::collection::vec("[a-z0-9.-]{1,12}", 0..3),
            proptest::collection::vec(arb_token(), 1..4),
        ),
        0..4,
    )
    .prop_map(|sigs| SignatureSet {
        signatures: sigs
            .into_iter()
            .enumerate()
            .map(|(id, (cluster_size, hosts, tokens))| ConjunctionSignature {
                id: id as u32,
                tokens,
                cluster_size,
                hosts,
            })
            .collect(),
    })
}

/// Whether the checked installer (and therefore `decode_store`) accepts
/// this set.
fn installable(set: &SignatureSet) -> bool {
    SignatureStore::new().install(1, &wire::encode(set)).is_ok()
}

/// No crash, or a crash at one of a save's mutating I/O points (0 =
/// temp write, 1 = fsync, 2 = rename, 3.. = pruning) with any flavor.
fn arb_crash() -> impl Strategy<Value = Option<(u64, CrashFlavor)>> {
    prop_oneof![
        Just(None),
        (0u64..5, 0..CrashFlavor::ALL.len()).prop_map(|(at, f)| Some((at, CrashFlavor::ALL[f]))),
    ]
}

/// A fresh per-case vault directory (proptest cases run sequentially but
/// a failing case must not poison the next one's state).
fn scratch_dir() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("leaksig-device-prop-{}-{n}", std::process::id()))
}

fn stored(version: u64, set: &SignatureSet) -> SignatureStore {
    let store = SignatureStore::new();
    store
        .install_unchecked(version, &wire::encode(set))
        .expect("encodable set installs");
    store
}

/// App ids of any shape: printable ASCII, arbitrary Unicode scalars, and
/// ASCII and Unicode whitespace, including newlines.
fn arb_app_id() -> impl Strategy<Value = String> {
    const SPACES: [char; 8] = [
        ' ', '\t', '\n', '\r', '\u{b}', '\u{85}', '\u{a0}', '\u{3000}',
    ];
    proptest::collection::vec((0u8..4, any::<char>(), any::<u32>()), 0..16).prop_map(|cs| {
        cs.into_iter()
            .map(|(kind, ascii, raw)| match kind {
                0 => SPACES[raw as usize % SPACES.len()],
                1 => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
                _ => ascii,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every remembered decision survives a policy snapshot, whatever
    /// its app id.
    #[test]
    fn policy_snapshots_round_trip_any_app_id(
        rows in proptest::collection::vec((arb_app_id(), any::<u32>(), any::<bool>()), 0..8),
    ) {
        let mut policy = PolicyEngine::new();
        for (app, sig, allow) in &rows {
            let choice = if *allow { UserChoice::AllowAlways } else { UserChoice::BlockAlways };
            policy.resolve(app, *sig, choice);
        }
        let text = encode_policy(&policy);
        let back = decode_policy(&text).map_err(|e| TestCaseError::fail(format!("{e}: {text:?}")))?;
        let mut want = policy.remembered_rows();
        let mut got = back.remembered_rows();
        want.sort();
        got.sort();
        prop_assert_eq!(got, want);
        prop_assert_eq!(encode_policy(&back), text);
    }

    /// The persistence decoders never panic on arbitrary text.
    #[test]
    fn decoders_are_total_on_arbitrary_text(
        junk in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let text = String::from_utf8_lossy(&junk);
        let _ = decode_store(&text);
        let _ = decode_policy(&text);
    }

    /// Nor on a valid store snapshot truncated at any char boundary or
    /// with an arbitrary junk line appended.
    #[test]
    fn store_decoder_is_total_on_damaged_snapshots(
        set in arb_set(),
        version in 1u64..1000,
        cut_frac in 0.0f64..1.0,
        junk in "[a-zA-Z0-9 =]{0,32}",
    ) {
        let text = encode_store(&stored(version, &set));
        let mut cut = (text.len() as f64 * cut_frac) as usize;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let _ = decode_store(&text[..cut]);
        let _ = decode_store(&format!("{text}{junk}\n"));
    }

    /// A full snapshot round-trips the store exactly.
    #[test]
    fn vault_round_trips_any_encodable_store(set in arb_set(), version in 1u64..1000) {
        prop_assume!(installable(&set));
        let dir = scratch_dir();
        let store = stored(version, &set);
        let mut vault = SnapshotVault::new(&dir).unwrap();
        vault.save_store(&store).unwrap();
        let (restored, report) = vault.restore_store();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(report.skipped_corrupt, 0);
        prop_assert_eq!(restored.version(), version);
        prop_assert_eq!(restored.wire_text(), store.wire_text());
    }

    /// A crash at any point while persisting a newer state restores
    /// either the old state or the new one, in full — never a blend, and
    /// never a panic.
    #[test]
    fn vault_restore_is_atomic_under_crashes(
        old in arb_set(),
        new in arb_set(),
        crash in arb_crash(),
    ) {
        prop_assume!(installable(&old) && installable(&new));
        let dir = scratch_dir();
        let store = stored(1, &old);
        SnapshotVault::new(&dir).unwrap().save_store(&store).unwrap();
        store.install_unchecked(2, &wire::encode(&new)).unwrap();
        let (disk, ctl) = FaultyDisk::new(RealDisk);
        let mut vault = SnapshotVault::open(&dir, Box::new(disk)).unwrap();
        if let Some((at, flavor)) = crash {
            ctl.arm_crash(ctl.mutations() + at, flavor);
        }
        let saved = vault.save_store(&store).ok();

        let (restored, report) = SnapshotVault::new(&dir).unwrap().restore_store();
        std::fs::remove_dir_all(&dir).ok();

        if crash.is_none() {
            prop_assert_eq!(saved, Some(2));
        }
        // Either generation, in full — never a blend. A crash after the
        // rename may fail the save yet leave generation 2 in place.
        match restored.version() {
            2 => prop_assert_eq!(restored.wire_text(), wire::encode(&new)),
            v => {
                prop_assert_eq!(v, 1);
                prop_assert_eq!(saved, None, "a successful save must restore as generation 2");
                prop_assert_eq!(restored.wire_text(), wire::encode(&old));
            }
        }
        prop_assert_eq!(report.skipped_corrupt, 0);
        prop_assert_eq!(restored.health(), StoreHealth::Fresh);
        prop_assert!(report.generation.is_some());
    }
}
