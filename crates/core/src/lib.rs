#![warn(missing_docs)]
//! `leaksig-core` — the paper's contribution: HTTP-packet distances,
//! group-average hierarchical clustering, conjunction-signature
//! generation, and signature-based detection of sensitive-information
//! leakage (Kuzuno & Tonami, "Signature Generation for Sensitive
//! Information Leakage in Android Applications", 2013).
//!
//! The pieces, bottom-up:
//!
//! * [`distance`] — the packet distance `d_pkt = d_dst + d_header`
//!   (§IV-B/C): IP-prefix, port, and host-edit-distance components plus
//!   the normalized compression distance over request-line, cookie, and
//!   body. Both the corrected and the paper-literal conventions are
//!   implemented (see the module docs for why they differ).
//! * [`matrix`] — parallel condensed pairwise distance matrices.
//! * [`cluster`] — group-average (UPGMA) agglomerative clustering with
//!   dendrogram cuts (§IV-D).
//! * [`payload`] — the payload check separating suspicious from normal
//!   traffic (§IV-A): one Aho–Corasick pass over each request's whole
//!   wire image.
//! * [`signature`] — conjunction signatures: per-field invariant tokens
//!   with boilerplate filtering (§IV-E, §VI).
//! * [`wire`] — the versioned text format signatures ship in (Fig. 3).
//! * [`audit`] — static auditing of finished sets: the diagnostic
//!   vocabulary and the deploy gate (§VI's hazards, re-checked at the
//!   deployment boundary; `leaksig-lint` builds on it).
//! * [`analyze`] — whole-set semantic analysis under conjunction
//!   semantics: proved subsumption lattice, dead-signature detection
//!   with witness traces, generation diffs, and static cost / FP-exposure
//!   bounds (the proofs behind [`audit`]'s A-codes).
//! * [`engine`] — the compiled detection engine: per-field multi-pattern
//!   token automata + counting conjunction evaluation (one linear pass
//!   per packet evaluates every signature).
//! * [`detect`] — the high-volume matcher, driving [`engine`] and fanning
//!   batch scans across cores.
//! * [`eval`] — the paper's TP/FN/FP formulas (§V-B).
//! * [`quality`] — cluster purity / Rand index (tuning diagnostics).
//! * [`bayes`] — Polygraph-class Bayes (token-scoring) signatures, an
//!   extension the paper's §VI points toward.
//! * [`pipeline`] — the end-to-end experiment: sample → cluster →
//!   generate → detect → evaluate.
//!
//! ```
//! use leaksig_core::prelude::*;
//! use leaksig_http::RequestBuilder;
//! use std::net::Ipv4Addr;
//!
//! // Two requests from the same ad module, leaking the same IMEI.
//! let mk = |slot: &str| {
//!     RequestBuilder::get("/getad")
//!         .query("imei", "355195000000017")
//!         .query("slot", slot)
//!         .destination(Ipv4Addr::new(203, 0, 113, 2), 80, "ad-maker.info")
//!         .build()
//! };
//! let (a, b) = (mk("1"), mk("2"));
//! let set = generate_signatures(&[&a, &b], &PipelineConfig::default());
//! let detector = Detector::new(set);
//! assert!(detector.match_packet(&mk("42")).is_some());
//! ```

pub mod analyze;
pub mod audit;
pub mod bayes;
pub mod cluster;
pub mod detect;
pub mod distance;
pub mod engine;
pub mod eval;
pub mod matrix;
pub mod payload;
pub mod pipeline;
pub mod quality;
pub mod signature;
pub mod wire;

/// The most commonly used items in one import.
pub mod prelude {
    pub use crate::analyze::{
        analyze_set, dead_signatures, diff_generations, dominates, drop_dead, fp_exposure,
        prove_dominates, set_matches, ChangeKind, CostReport, DeadReason, DeadSignature, Dominance,
        DominanceProof, FpExposure, GenerationDiff, SetAnalysis, Witness,
    };
    pub use crate::audit::{deploy_check, AuditConfig, Code, Diagnostic, Severity};
    pub use crate::bayes::{BayesConfig, BayesSignature};
    pub use crate::cluster::{agglomerate, agglomerate_with, Dendrogram, Linkage, Merge};
    pub use crate::detect::{
        Detection, Detector, Explanation, MatchMode, PacketScanner, RawPacket, ScanVerdict,
    };
    pub use crate::distance::{DistanceConfig, DistanceConvention, PacketDistance, PacketFeatures};
    pub use crate::engine::{CompiledDetector, FieldBytes, ScanScratch};
    pub use crate::eval::{tally, Counts, Rates};
    pub use crate::matrix::{pairwise, pairwise_naive, CondensedMatrix};
    pub use crate::payload::PayloadCheck;
    pub use crate::pipeline::{
        drop_dominated, generate_signatures, generate_signatures_counted, prune_against_normal,
        regeneration_pass, run_experiment, run_experiment_refs, run_experiment_with,
        take_last_timings, ClusterSelection, ExperimentOutcome, FpValidation, GeneratedSignatures,
        PipelineConfig, StageTimings,
    };
    pub use crate::signature::{
        signature_from_cluster, ConjunctionSignature, Field, FieldToken, SignatureConfig,
        SignatureSet,
    };
    pub use crate::wire::{
        decode, encode, frame, unframe, unframe_partial, FrameError, FrameProgress, WireError,
        MAX_FRAME_HEADER,
    };
}
